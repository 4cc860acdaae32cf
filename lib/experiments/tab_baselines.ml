(* The Chapter 2/3 design-space comparison, as runnable tables:

   - the Herzberg time/message trade-off (§3.3);
   - SecTrace vs AWERBUCH localization rounds (§3.5/3.6);
   - the protocol properties summary of §2.4.2 (completeness, accuracy,
     precision), each cell backed by the corresponding executable
     scenario in this repository. *)

open Core

let herzberg_tradeoff () =
  Exp.section "Baselines (3.3): Herzberg time vs message complexity"
    [ Exp.table
        ~header:[ "path m"; "variant"; "msgs/pkt"; "worst time" ]
        (List.concat_map
           (fun m ->
             List.map
               (fun (name, v) ->
                 [ Exp.int m; Exp.text name;
                   Exp.int (Herzberg.message_complexity v ~path_len:m);
                   Exp.int (Herzberg.worst_detection_time v ~path_len:m) ])
               [ ("end-to-end", Herzberg.End_to_end);
                 ("hop-by-hop", Herzberg.Hop_by_hop);
                 ("checkpoint-4", Herzberg.Checkpointed 4) ])
           [ 8; 16; 32 ]) ]

let probing_rounds () =
  Exp.section "Baselines (3.5/3.6): localization rounds, SecTrace vs AWERBUCH"
    [ Exp.table
        ~header:[ "path m"; "fault at"; "sectrace"; "awerbuch" ]
        (List.map
           (fun (m, pos) ->
             let attacker = Some (Sectrace.consistent_attacker ~position:pos) in
             let st = Sectrace.sectrace ~path_len:m ~attacker in
             let aw = Sectrace.awerbuch ~path_len:m ~attacker in
             [ Exp.int m; Exp.int pos; Exp.int st.Sectrace.rounds;
               Exp.int aw.Sectrace.rounds ])
           [ (9, 6); (17, 12); (33, 28); (65, 50) ]) ]

let properties () =
  Exp.section "Design space (2.4.2): properties of the detection protocols"
    [ Exp.table
        ~header:[ "protocol"; "complete"; "accurate"; "precision" ]
        (List.map
           (fun (name, complete, accurate, precision) ->
             [ Exp.text name; Exp.text complete; Exp.text accurate;
               Exp.text precision ])
           [ ("WATCHERS", "no (flaw)", "yes", "2");
             ("WATCHERS-fixed", "strong", "yes", "2");
             ("HERZBERG", "weak", "yes*", "2");
             ("PERLMANd", "no", "no (Fig 3.8)", "2");
             ("SecTrace", "weak", "no (Fig 3.7)", "2");
             ("AWERBUCH", "weak", "yes*", "2");
             ("SATS", "weak", "yes", "pair span");
             ("Pi2", "strong", "yes", "2");
             ("Pik+2", "strong", "yes", "k+2");
             ("chi", "strong", "yes", "2") ]);
      Exp.Note
        ("*", "accurate only against attackers that cannot time their drops to the probe schedule");
      Exp.Note
        ( "evidence",
          "each row is exercised by test/test_baselines.ml, test/test_protocols.ml or test/test_chi.ml"
        ) ]

let eval () =
  { Exp.id = "baselines";
    sections = [ herzberg_tradeoff (); probing_rounds (); properties () ] }

(* T5.1 / T7.2: per-router counter state, WATCHERS vs Π2 vs Πk+2
   (§5.1.1, §5.2.1, §7.2).  The dissertation's reference points on the
   measured Sprintlink map: WATCHERS ~13,605 avg / 99,225 max; Π2 (k=2)
   216 avg / 2,172 max; Πk+2 (k=2) 232 avg / 496 max. *)

let stats a =
  let n = Array.length a in
  let mean = float_of_int (Array.fold_left ( + ) 0 a) /. float_of_int n in
  let mx = Array.fold_left max 0 a in
  (mean, mx)

let counters_section ~label g =
  let rt = Topology.Routing.compute g in
  let w_mean, w_max = stats (Core.Watchers.counters_per_router g) in
  let rows =
    [ Exp.text "WATCHERS"; Exp.text "-"; Exp.float ~decimals:0 w_mean; Exp.int w_max ]
    :: List.concat_map
         (fun k ->
           let p2_mean, p2_max = stats (Core.Pi2.state_counters rt ~k) in
           let pk_mean, pk_max = stats (Core.Pik2.state_counters rt ~k) in
           [ [ Exp.text "Pi2"; Exp.int k; Exp.float ~decimals:0 p2_mean;
               Exp.int p2_max ];
             [ Exp.text "Pik+2"; Exp.int k; Exp.float ~decimals:0 pk_mean;
               Exp.int pk_max ] ])
         [ 2; 7 ]
  in
  Exp.section
    (Printf.sprintf "Table 5.1/7.2: counter state per router - %s" label)
    [ Exp.table ~header:[ "protocol"; "k"; "avg"; "max" ] rows ]

let policy_bytes () =
  (* §7.2: state in bytes per router once the summaries themselves are
     charged, by conservation policy (EBONE-like, k = 2, 100 pps per
     monitored segment, tau = 5 s). *)
  let rt = Topology.Routing.compute (Topology.Generate.ebone_like ()) in
  let mean a = Array.fold_left ( + ) 0 a / Array.length a in
  let maxi a = Array.fold_left max 0 a in
  let rows =
    List.map
      (fun (label, policy) ->
        let pi2 =
          Core.State_size.pi2_router_bytes ~rt ~k:2 ~policy ~pps_per_segment:100.0
            ~tau:5.0
        in
        let pik2 =
          Core.State_size.pik2_router_bytes ~rt ~k:2 ~policy ~pps_per_segment:100.0
            ~tau:5.0
        in
        [ Exp.text label; Exp.int (mean pi2); Exp.int (maxi pi2);
          Exp.int (mean pik2); Exp.int (maxi pik2) ])
      [ ("flow", Core.Summary.Flow); ("content", Core.Summary.Content);
        ("order", Core.Summary.Order); ("timeliness", Core.Summary.Timeliness) ]
  in
  let w = Core.State_size.watchers_router_bytes (Topology.Routing.graph rt) in
  Exp.section "Table 7.2: per-router state by conservation policy (bytes)"
    [ Exp.table
        ~header:[ "policy"; "pi2 avg"; "pi2 max"; "pik+2 avg"; "pik+2 max" ]
        rows;
      Exp.Note
        ( "WATCHERS (flow only)",
          Printf.sprintf "%d avg / %d max bytes" (mean w) (maxi w) );
      Exp.Note
        ( "note",
          "flow-policy state is counter-sized; identity-keeping policies pay ~8 B per      packet per monitored segment per round — the 7.1 fingerprint-state tradeoff"
        ) ]

let eval () =
  { Exp.id = "state";
    sections =
      [ counters_section ~label:"Sprintlink-like (315/972)"
          (Topology.Generate.sprintlink_like ());
        counters_section ~label:"EBONE-like (87/161)"
          (Topology.Generate.ebone_like ());
        policy_bytes () ] }

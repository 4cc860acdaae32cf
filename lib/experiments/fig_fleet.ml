(* Network-wide localization trials: the per-interface architecture
   (Fig 2.3) evaluated quantitatively.

   On an ISP-like topology with a CBR mesh, a randomly chosen router is
   compromised per trial; a χ monitor runs on every directed link.  The
   table reports, per trial, which routers the fleet accused and how
   fast — localization accuracy (should always name exactly the
   attacker) and the absence of false accusations. *)

open Netsim

let trial ~seed ~attacker =
  let g = Topology.Generate.ispish ~seed:5 ~n:12 ~duplex_links:20 ~max_degree:6 () in
  let net = Net.create ~seed ~jitter_bound:150e-6 g in
  let rt = Topology.Routing.compute g in
  Net.use_routing net rt;
  let config = { Core.Chi.default_config with Core.Chi.tau = 1.0; learning_rounds = 3 } in
  let fleet = Core.Chi_fleet.deploy ~net ~rt ~config () in
  let malicious = ref 0 in
  Net.subscribe_router net ~kinds:Router.(kinds [ Malicious_drop ]) (fun _ ->
      incr malicious);
  (* Flows chosen so the attacker actually carries transit (preferential
     topologies concentrate transit on hubs), plus random background. *)
  let n = Topology.Graph.size g in
  let transit_pairs =
    List.concat_map
      (fun s ->
        List.filter_map
          (fun d ->
            if s = d then None
            else begin
              match Topology.Routing.path rt ~src:s ~dst:d with
              | Some p when List.mem attacker p && List.hd p <> attacker
                            && List.nth p (List.length p - 1) <> attacker ->
                  Some (s, d)
              | _ -> None
            end)
          (List.init n Fun.id))
      (List.init n Fun.id)
  in
  let chosen = List.filteri (fun i _ -> i < 8) transit_pairs in
  List.iter
    (fun (s, d) ->
      ignore (Flow.cbr net ~src:s ~dst:d ~rate_pps:60.0 ~size:500 ~start:0.0 ~stop:40.0))
    chosen;
  let rng = Random.State.make [| seed; 0xf1ee7 |] in
  for _ = 1 to 8 do
    let s = Random.State.int rng n and d = Random.State.int rng n in
    if s <> d then
      ignore (Flow.cbr net ~src:s ~dst:d ~rate_pps:60.0 ~size:500 ~start:0.0 ~stop:40.0)
  done;
  Router.set_behavior (Net.router net attacker)
    (Core.Adversary.after 15.0 (Core.Adversary.drop_fraction ~seed 0.4));
  Net.run ~until:40.0 net;
  let suspects = Core.Chi_fleet.suspected_routers fleet in
  let latency =
    match Core.Chi_fleet.suspects fleet with
    | s :: _ -> Exp.float ~decimals:1 (s.Core.Chi_fleet.first_alarm -. 15.0)
    | [] -> Exp.text "-"
  in
  (suspects, latency, !malicious, List.length chosen)

let eval () =
  let correct = ref 0 and total = ref 0 and leaves = ref 0 in
  let rows =
    List.mapi
      (fun i attacker ->
        incr total;
        let suspects, latency, malicious, _ = trial ~seed:(100 + i) ~attacker in
        let verdict =
          match suspects with
          | [ r ] when r = attacker ->
              incr correct;
              "exact"
          | [] ->
              if malicious = 0 then begin
                incr leaves;
                "leaf: no transit (fate-sharing, 2.1.4)"
              end
              else "MISSED"
          | _ -> "imprecise"
        in
        [ Exp.int (i + 1); Exp.int attacker; Exp.int malicious;
          Exp.text ("[" ^ String.concat ";" (List.map string_of_int suspects) ^ "]");
          latency; Exp.text verdict ])
      [ 1; 3; 5; 7; 9; 11 ]
  in
  { Exp.id = "fleet";
    sections =
      [ Exp.section "Network-wide chi (Fig 2.3 architecture): localization trials"
          [ Exp.table
              ~header:[ "trial"; "attacker"; "mal drops"; "accused"; "latency (s)";
                        "verdict" ]
              rows;
            Exp.Note
              ( "summary",
                Printf.sprintf
                  "%d/%d transit-carrying attackers localized exactly; %d leaf routers had no         transit to attack (a compromised access router can only hurt its own hosts,         which no routing remedy helps — 2.1.4)"
                  !correct (!total - !leaves) !leaves ) ] ] }

let family rt ~k = Topology.Segments.pi2_family rt ~k
let pr rt ~k = Topology.Segments.pi2_pr rt ~k

let pairwise_suspicions ~adversary ~thresholds (seg, truth) =
  let nodes = Array.of_list seg in
  let reported =
    Array.mapi (fun pos r -> adversary.Rounds.misreport ~router:r ~pos ~truth) nodes
  in
  let out = ref [] in
  for i = 0 to Array.length nodes - 2 do
    let v = Validation.tv ~thresholds ~sent:reported.(i) ~received:reported.(i + 1) () in
    if not v.Validation.ok then out := [ nodes.(i); nodes.(i + 1) ] :: !out
  done;
  !out

(* The consensus exchange between the segment's terminals rides the
   lossy control plane: a timed-out exchange skips the segment this
   round (benign degradation, no accusation) instead of wedging. *)
let exchange_ok ctrl retry ~round seg =
  match ctrl with
  | None -> true
  | Some ch -> (
      let nodes = Array.of_list seg in
      let a = nodes.(0) and b = nodes.(Array.length nodes - 1) in
      let tag = Ctrl.segment_tag ~round ~salt:0 seg in
      match Ctrl.send ch ?retry ~src:a ~dst:b ~tag () with
      | Ctrl.Delivered _ -> true
      | Ctrl.Timed_out _ -> false)

let detect_round ~rt ~k ~adversary ?(thresholds = Validation.strict) ?packets_per_path
    ?ctrl ?retry ~round () =
  let segments = family rt ~k in
  let obs = Rounds.observe ~rt ~segments ~adversary ?packets_per_path ~round () in
  let suspicions =
    List.concat_map
      (fun ((seg, _) as truth) ->
        if exchange_ok ctrl retry ~round seg then
          pairwise_suspicions ~adversary ~thresholds truth
        else [])
      obs.Rounds.truth
  in
  List.sort_uniq compare suspicions

let detect ~rt ~k ~adversary ?thresholds ?packets_per_path ?ctrl ?retry ?probe
    ~rounds () =
  let g = Topology.Routing.graph rt in
  let correct = Rounds.correct_routers g ~faulty:adversary.Rounds.faulty in
  List.concat_map
    (fun round ->
      let segs =
        detect_round ~rt ~k ~adversary ?thresholds ?packets_per_path ?ctrl ?retry
          ~round ()
      in
      (match probe with
      | Some probe ->
          (* The offline rounds have no simulation clock; the round index
             stands in for time. *)
          let time = float_of_int round in
          let round_span =
            Netsim.Probe.trace_span probe ~track:"pi2"
              ~name:(Printf.sprintf "pi2 round %d" round)
              ~cat:"round" ~start:time ~finish:(time +. 1.0)
              ~args:
                [ ("segments_suspected",
                   Telemetry.Export.Int (List.length segs)) ]
              ()
          in
          let evidence =
            List.filter_map
              (fun seg ->
                Netsim.Probe.trace_instant probe ~track:"pi2" ~name:"tv-fail"
                  ~cat:"evidence" ~time ~routers:seg
                  ~args:
                    [ ("segment",
                       Telemetry.Export.List
                         (List.map (fun r -> Telemetry.Export.Int r) seg)) ]
                  ())
              segs
          in
          Netsim.Probe.record_verdict probe ~time ~detector:"pi2"
            ~suspects:(List.sort_uniq compare (List.concat segs))
            ~alarm:(segs <> [])
            ~detail:(Printf.sprintf "round=%d segments=%d" round (List.length segs))
            ~evidence:(Option.to_list round_span @ evidence)
            ()
      | None -> ());
      List.concat_map
        (fun seg ->
          List.map (fun by -> { Spec.segment = seg; round; by }) correct)
        segs)
    (List.init rounds Fun.id)

let state_counters rt ~k = Array.map List.length (pr rt ~k)

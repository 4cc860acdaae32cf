let family rt ~k = Topology.Segments.pik2_family rt ~k
let pr rt ~k = Topology.Segments.pik2_pr rt ~k

let filter_summary sampling s =
  match sampling with
  | None -> s
  | Some sampler ->
      let out = Summary.create (Summary.policy s) in
      List.iter
        (fun fp ->
          if Crypto_sim.Sampling.selects sampler fp then
            Summary.observe out ~fp ~size:1 ~time:0.0)
        (Summary.fingerprints s);
      out

let detect_round ~rt ~k ~adversary ?(thresholds = Validation.strict) ?sampling
    ?packets_per_path ?ctrl ?retry ~round () =
  let segments = family rt ~k in
  let obs = Rounds.observe ~rt ~segments ~adversary ?packets_per_path ~round () in
  let is_faulty r = List.mem r adversary.Rounds.faulty in
  let suspicions =
    List.filter_map
      (fun (seg, truth) ->
        let nodes = Array.of_list seg in
        let last = Array.length nodes - 1 in
        let a = nodes.(0) and b = nodes.(last) in
        if is_faulty a && is_faulty b then None
        else begin
          (* The summaries travel through the segment itself; any router
             of the segment can block the exchange, which is itself a
             detectable failure (Fig 5.3's timeout µ). *)
          let blocked = Array.exists adversary.Rounds.blocks_exchange nodes in
          if blocked then Some seg
          else if
            (* Benign control-plane loss that exhausts the retry budget
               skips the segment this round — the ends cannot tell loss
               from silence after one window, so they degrade rather
               than accuse (the persistent adversarial block above is
               what repeated authenticated timeouts punish). *)
            match ctrl with
            | None -> false
            | Some ch -> (
                let tag = Ctrl.segment_tag ~round ~salt:0 seg in
                match Ctrl.send ch ?retry ~src:a ~dst:b ~tag () with
                | Ctrl.Delivered _ -> false
                | Ctrl.Timed_out _ -> true)
          then None
          else begin
            let report pos r =
              filter_summary sampling (adversary.Rounds.misreport ~router:r ~pos ~truth)
            in
            let v =
              Validation.tv ~thresholds ~sent:(report 0 a) ~received:(report last b) ()
            in
            if v.Validation.ok then None else Some seg
          end
        end)
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
          (* Clockless synchronous rounds, as in {!Pi2.detect}: the round
             index stands in for time. *)
          let time = float_of_int round in
          let round_span =
            Netsim.Probe.trace_span probe ~track:"pik2"
              ~name:(Printf.sprintf "pik2 round %d" round)
              ~cat:"round" ~start:time ~finish:(time +. 1.0)
              ~args:
                [ ("segments_suspected",
                   Telemetry.Export.Int (List.length segs)) ]
              ()
          in
          let evidence =
            List.filter_map
              (fun seg ->
                Netsim.Probe.trace_instant probe ~track:"pik2"
                  ~name:"exchange-fail" ~cat:"evidence" ~time ~routers:seg
                  ~args:
                    [ ("segment",
                       Telemetry.Export.List
                         (List.map (fun r -> Telemetry.Export.Int r) seg)) ]
                  ())
              segs
          in
          Netsim.Probe.record_verdict probe ~time ~detector:"pik2"
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

let state_counters rt ~k = Array.map (fun segs -> 2 * List.length segs) (pr rt ~k)

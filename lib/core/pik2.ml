let family rt ~k = Topology.Segments.pik2_family rt ~k

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

let detect_round ~rt ~k ~adversary ?sampling ?packets_per_path ~round () =
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
        (* The summaries travel through the segment itself; any router
           of the segment can block the exchange, which is itself a
           detectable failure (Fig 5.3's timeout µ). *)
        else if Array.exists adversary.Rounds.blocks_exchange nodes then Some seg
        else begin
          let report pos r =
            filter_summary sampling (adversary.Rounds.misreport ~router:r ~pos ~truth)
          in
          let v = Validation.tv ~sent:(report 0 a) ~received:(report last b) () in
          if v.Validation.ok then None else Some seg
        end)
      obs.Rounds.truth
  in
  List.sort_uniq compare suspicions

let detect ~rt ~k ~adversary ~rounds () =
  let g = Topology.Routing.graph rt in
  let correct = Rounds.correct_routers g ~faulty:adversary.Rounds.faulty in
  List.concat_map
    (fun round ->
      List.concat_map
        (fun seg ->
          List.map (fun by -> { Spec.segment = seg; round; by }) correct)
        (detect_round ~rt ~k ~adversary ~round ()))
    (List.init rounds Fun.id)

let state_counters rt ~k = Array.map (( * ) 2) (Topology.Segments.pik2_pr_counts rt ~k)

let family rt ~k = Topology.Segments.pi2_family rt ~k

let pairwise_suspicions ~adversary (seg, truth) =
  let nodes = Array.of_list seg in
  let reported =
    Array.mapi (fun pos r -> adversary.Rounds.misreport ~router:r ~pos ~truth) nodes
  in
  let out = ref [] in
  for i = 0 to Array.length nodes - 2 do
    let v = Validation.tv ~sent:reported.(i) ~received:reported.(i + 1) () in
    if not v.Validation.ok then out := [ nodes.(i); nodes.(i + 1) ] :: !out
  done;
  !out

let detect_round ~rt ~k ~adversary ~round () =
  let segments = family rt ~k in
  let obs = Rounds.observe ~rt ~segments ~adversary ~round () in
  List.sort_uniq compare
    (List.concat_map (pairwise_suspicions ~adversary) obs.Rounds.truth)

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

let state_counters rt ~k = Topology.Segments.pi2_pr_counts rt ~k

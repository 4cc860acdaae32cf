let word = 8

let summary_bytes ~policy ~packets_per_round =
  if packets_per_round < 0 then invalid_arg "State_size.summary_bytes: negative packets";
  let words =
    match policy with
    | Summary.Flow -> 2
    | Summary.Content -> 2 + packets_per_round
    | Summary.Order -> 2 + packets_per_round
    | Summary.Timeliness -> 2 + (2 * packets_per_round)
  in
  word * words

let per_router_bytes counts ~per_segment ~policy ~pps_per_segment ~tau =
  let packets = int_of_float (pps_per_segment *. tau) in
  Array.map
    (fun n -> per_segment * n * summary_bytes ~policy ~packets_per_round:packets)
    counts

let pi2_router_bytes ~rt ~k ~policy ~pps_per_segment ~tau =
  per_router_bytes (Topology.Segments.pi2_pr_counts rt ~k) ~per_segment:1 ~policy
    ~pps_per_segment ~tau

let pik2_router_bytes ~rt ~k ~policy ~pps_per_segment ~tau =
  per_router_bytes (Topology.Segments.pik2_pr_counts rt ~k) ~per_segment:2 ~policy
    ~pps_per_segment ~tau

let watchers_router_bytes g =
  Array.map (fun counters -> word * counters) (Watchers.counters_per_router g)

type verdict = {
  round : int;
  time : float;
  deficits : (int * int) list;
  suspected : int list;
}

type t = {
  n : int;
  flow : Netflow.t;
  (* Deficit carried from previous rounds (counters are cumulative; per
     round we difference them). *)
  mutable last_deficit : int array;
  mutable round : int;
  mutable verdicts_rev : verdict list;
}

(* Per-round conservation deficit (packets) above which a router is
   suspected. *)
let threshold = 25

let deploy ~net ?(tau = 5.0) ?probe () =
  let n = Topology.Graph.size (Netsim.Net.graph net) in
  let t =
    { n; flow = Netflow.attach ~net (); last_deficit = Array.make n 0;
      round = 0; verdicts_rev = [] }
  in
  let sim = Netsim.Net.sim net in
  let rec tick () =
    let deficits =
      List.filter_map
        (fun r ->
          let total = Netflow.conservation_deficit t.flow ~router:r in
          let this_round = total - t.last_deficit.(r) in
          t.last_deficit.(r) <- total;
          if this_round <> 0 then Some (r, this_round) else None)
        (List.init t.n Fun.id)
    in
    let suspected = List.filter_map
        (fun (r, d) -> if d > threshold then Some r else None) deficits
    in
    let now = Netsim.Sim.now sim in
    t.verdicts_rev <-
      { round = t.round; time = now; deficits; suspected } :: t.verdicts_rev;
    (match probe with
    | Some probe ->
        Netsim.Probe.record_verdict probe ~time:now ~detector:"watchers"
          ~suspects:suspected
          ~alarm:(suspected <> [])
          ~detail:
            (Printf.sprintf "round=%d routers_with_deficit=%d" t.round
               (List.length deficits))
          ()
    | None -> ());
    t.round <- t.round + 1;
    Netsim.Sim.schedule sim ~delay:tau tick
  in
  Netsim.Sim.schedule sim ~delay:tau tick;
  t

let verdicts t = List.rev t.verdicts_rev

let suspected_routers t =
  List.sort_uniq compare (List.concat_map (fun v -> v.suspected) (verdicts t))

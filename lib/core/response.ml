(* Zebra's OSPF timers, seconds: alert -> recomputation, and the
   minimum spacing between recomputations. *)
let ospf_delay = 5.0
let ospf_hold = 10.0

type event = {
  time : float;
  forbidden : Topology.Graph.node list list;
}

type t = {
  net : Netsim.Net.t;
  probe : Netsim.Probe.t option;
  mutable suspected : Topology.Graph.node list list;
  mutable pending : bool;           (* a recomputation is scheduled *)
  mutable last_update : float;      (* time of the latest installation *)
  mutable updates_rev : event list;
  mutable on_update : Topology.Policy.t -> unit;
}

let create ~net ?probe () =
  { net; probe; suspected = []; pending = false;
    last_update = neg_infinity; updates_rev = []; on_update = (fun _ -> ()) }

let install t =
  t.pending <- false;
  let now = Netsim.Sim.now (Netsim.Net.sim t.net) in
  t.last_update <- now;
  let pol = Topology.Policy.compute (Netsim.Net.graph t.net) ~forbidden:t.suspected in
  Netsim.Net.use_policy t.net pol;
  t.updates_rev <- { time = now; forbidden = t.suspected } :: t.updates_rev;
  (match t.probe with
  | Some probe ->
      ignore
        (Netsim.Probe.trace_instant probe ~track:"response" ~name:"routing-update"
           ~cat:"response" ~time:now
           ~routers:(List.sort_uniq compare (List.concat t.suspected))
           ~args:
             [ ("segments_excised",
                Telemetry.Export.Int (List.length t.suspected)) ]
           ())
  | None -> ());
  t.on_update pol

let schedule t =
  if not t.pending then begin
    t.pending <- true;
    let sim = Netsim.Net.sim t.net in
    let now = Netsim.Sim.now sim in
    (* Delay timer, pushed out by the hold-down from the last install. *)
    let at =
      Float.max (now +. ospf_delay) (t.last_update +. ospf_hold)
    in
    Netsim.Sim.schedule_at sim ~time:at (fun () -> install t)
  end

let suspect t segment =
  if not (List.mem segment t.suspected) then begin
    t.suspected <- segment :: t.suspected;
    schedule t
  end

let suspected t = t.suspected
let updates t = List.rev t.updates_rev

let set_on_update t f = t.on_update <- f

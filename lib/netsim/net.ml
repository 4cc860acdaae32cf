type queue_spec =
  | Droptail of int
  | Red of Red.params

type 'kind view = 'kind Probe.view = {
  clock : Sim.fbox;
  router : int;
  mutable next : int;
  mutable kind : 'kind;
  mutable pkt : Packet.t;
  mutable arg : float;
}

type iface_event = Iface.event view
type router_event = Router.event view

type t = {
  sim : Sim.t;
  clock : Sim.fbox;  (* the simulation's clock, read without boxing *)
  graph : Topology.Graph.t;
  mutable routers : Router.t array;
  (* Every listener is stored with the kinds it declared, fixed at
     subscribe time. *)
  mutable iface_listeners : (Iface.kinds * (iface_event -> unit)) list;
  mutable router_listeners : (Router.kinds * (router_event -> unit)) list;
  (* Link-scoped listeners, by owner router: [(next, listeners)] per
     subscribed link.  Empty until the first {!subscribe_link}, so a
     network nobody watches per link allocates nothing for them. *)
  mutable link_listeners :
    (int * (Iface.kinds * (iface_event -> unit)) list) list array;
  apps : (Packet.t -> unit) list ref array;
  pins : (int * int, int) Hashtbl.t; (* (flow, router) -> next hop *)
  mutable probe : Probe.t option;
  poison : bool;
  pool : Pool.t;
  jitter_bound : float;
}

let sim t = t.sim
let jitter_bound t = t.jitter_bound

(* Observation is scoped by link and by kind.  An interface emits the
   kinds its consumers read: every kind under a probe, plus the kinds
   of the network-wide iface listeners, plus those of the listeners on
   its own link.  A router emits every kind under a probe, plus the
   kinds of the router listeners.  The unobserved hot path emits
   nothing at all. *)
let rec link_subscribers next = function
  | [] -> []
  | (dst, fs) :: rest -> if dst = next then fs else link_subscribers next rest

let union_kinds union none = List.fold_left (fun acc (k, _) -> union acc k) none

let wide_iface_kinds t =
  if t.probe <> None then Iface.all_kinds
  else union_kinds Iface.union (Iface.kinds []) t.iface_listeners

let iface_kinds t ~wide i =
  if Array.length t.link_listeners = 0 then wide
  else
    union_kinds Iface.union wide
      (link_subscribers (Iface.next_hop i) t.link_listeners.(Iface.owner i))

let refresh_observe t =
  let wide = wide_iface_kinds t in
  let routers =
    if t.probe <> None then Router.all_kinds
    else union_kinds Router.union (Router.kinds []) t.router_listeners
  in
  Array.iter
    (fun r ->
      Router.set_observe r routers;
      List.iter (fun i -> Iface.set_observe i (iface_kinds t ~wide i)) (Router.ifaces r))
    t.routers

let graph t = t.graph
let router t id = t.routers.(id)

let iface t ~src ~dst =
  if src >= 0 && src < Array.length t.routers then Router.iface_to t.routers.(src) dst
  else None

let subscribe_iface t ?(kinds = Iface.all_kinds) f =
  t.iface_listeners <- (kinds, f) :: t.iface_listeners;
  refresh_observe t

let subscribe_router t ?(kinds = Router.all_kinds) f =
  t.router_listeners <- (kinds, f) :: t.router_listeners;
  refresh_observe t

(* Only the subscribed interface changes what it observes: no network
   walk. *)
let subscribe_link t ?(kinds = Iface.all_kinds) ~src ~dst f =
  match iface t ~src ~dst with
  | None -> invalid_arg "Net.subscribe_link: no such link"
  | Some i ->
      if Array.length t.link_listeners = 0 then
        t.link_listeners <- Array.make (Array.length t.routers) [];
      let subs = t.link_listeners.(src) in
      t.link_listeners.(src) <-
        (dst, (kinds, f) :: link_subscribers dst subs) :: List.remove_assoc dst subs;
      Iface.set_observe i (iface_kinds t ~wide:(wide_iface_kinds t) i)

let set_probe t probe =
  Option.iter
    (fun p ->
      let n = Topology.Graph.size t.graph in
      let ifaces = Array.fold_right (fun r acc -> Router.ifaces r @ acc) t.routers [] in
      Probe.set_stats p (Some (Stats.create ~n ifaces)))
    probe;
  t.probe <- probe;
  refresh_observe t
let stats t = Option.bind t.probe Probe.stats

(* One view per interface and per router, overwritten at each emission
   and lent to the probe and to every listener that declared its kind
   ([wants] is the layer's kind test).  Apps get delivered packets the
   same way; the walks build no closure per call. *)
let rec notify wants (ev : _ view) = function
  | [] -> ()
  | (kinds, f) :: rest ->
      if wants kinds ev.kind then f ev;
      notify wants ev rest

let rec notify_apps pkt = function
  | [] -> ()
  | f :: rest ->
      f pkt;
      notify_apps pkt rest

(* Poison mode's borrow check: an emission into a view whose consumers
   are still running would overwrite the record they are reading. *)
let lend t busy =
  if t.poison then begin
    if !busy then invalid_arg "Net: emission into a view its listeners are still reading";
    busy := true
  end

(* The one emit path of both layers: fill the view, then lend it to the
   probe ([hear] is its hook for the layer), the network-wide
   listeners and the listeners on this link ([scoped]).  The view's
   time is the clock it holds, so nothing is stored for it; [arg] is
   a boxed float already (a constant, or the router's), so storing it
   boxes nothing. *)
let emit t busy (ev : _ view) hear wants listeners scoped kind next pkt arg =
  lend t busy;
  ev.kind <- kind;
  ev.next <- next;
  ev.pkt <- pkt;
  ev.arg <- arg;
  (match t.probe with Some p -> hear p ev | None -> ());
  notify wants ev listeners;
  notify wants ev scoped;
  busy := false

let scoped_listeners t (ev : iface_event) =
  if Array.length t.link_listeners = 0 then []
  else link_subscribers ev.next t.link_listeners.(ev.router)

let attach_app t ~node f = t.apps.(node) := f :: !(t.apps.(node))

let fresh_flow_id t = Sim.fresh_id t.sim

let create ?(seed = 1) ?(queue = Droptail 64000) ?(jitter_bound = 300e-6)
    ?(pooling = true) ?(poison = false) graph =
  if not (Float.is_finite jitter_bound) then
    invalid_arg "Net.create: jitter_bound must be finite";
  if not pooling then invalid_arg "Net.create: packets are always pooled";
  let n = Topology.Graph.size graph in
  let sim = Sim.create ~seed () in
  let t =
    { sim; clock = Sim.clock sim; graph;
      routers = [||];
      iface_listeners = [];
      router_listeners = [];
      link_listeners = [||];
      apps = Array.init n (fun _ -> ref []);
      pins = Hashtbl.create 16;
      probe = None;
      poison;
      pool = Pool.create ~poison ();
      jitter_bound }
  in
  let release p = Pool.release t.pool p in
  (* What a view holds until its first emission; never lent. *)
  let placeholder =
    Packet.make_at ~clock:t.clock ~uid:(-1) ~src:0 ~dst:0 ~flow:0 ~size:1 Packet.Udp
  in
  t.routers <-
    Array.init n (fun id ->
        let local_apps = t.apps.(id) in
        let view =
          { clock = t.clock; router = id; next = -1; kind = Router.No_route; pkt = placeholder;
            arg = 0.0 }
        in
        let busy = ref false in
        Router.create ~sim ~id ~n ~jitter_bound ~release
          ~on_event:(fun kind ~next pkt arg ->
            emit t busy view Probe.on_router Router.wants t.router_listeners [] kind next
              pkt arg)
          ~local_deliver:(fun pkt -> notify_apps pkt !local_apps));
  let queue_kind =
    match queue with Droptail b -> Iface.Droptail b | Red p -> Iface.Red_queue p
  in
  List.iter
    (fun (l : Topology.Graph.link) ->
      let rdst = t.routers.(l.Topology.Graph.dst) in
      let view clock =
        { clock; router = l.Topology.Graph.src; next = l.Topology.Graph.dst;
          kind = Iface.Enqueued; pkt = placeholder; arg = 0.0 }
      in
      (* The arrival-side kinds are stamped with the packet's arrival
         time, which its neighbour saw: the arrival event fires after
         the receiving router's jitter ({!Iface.create}).  They borrow
         a second view, whose clock is a box set to that time. *)
      let at_clock = view t.clock and at_arrival = view { Sim.f = 0.0 } in
      let busy = ref false in
      let iface =
        Iface.create ~sim ~link:l ~kind:queue_kind ~jitter_bound ~release
          ~on_event:(fun kind pkt ->
            let v =
              match kind with
              | Iface.Delivered | Iface.Drop_corrupted ->
                  at_arrival.clock.f <- pkt.Packet.spans.Packet.arrive;
                  at_arrival
              | Iface.Enqueued | Iface.Drop_congestion | Iface.Drop_red_early
              | Iface.Drop_link_down | Iface.Transmit_start -> at_clock
            in
            emit t busy v Probe.on_iface Iface.wants t.iface_listeners
              (scoped_listeners t v) kind v.next pkt 0.0)
          ~deliver:(fun ~prev pkt -> Router.receive_prev rdst ~prev pkt)
      in
      Router.add_iface t.routers.(l.Topology.Graph.src) iface)
    (Topology.Graph.links graph);
  refresh_observe t;
  t

(* Every forwarding plane goes through an int-returning lookup: no
   option box per hop, and no pin-key tuple unless a pin actually
   exists. *)
let use_lookup t lookup =
  Array.iter
    (fun r ->
      let cur = Router.id r in
      Router.set_forwarding_id r (fun ~prev pkt ->
          if Hashtbl.length t.pins > 0 then
            match Hashtbl.find_opt t.pins (pkt.Packet.flow, cur) with
            | Some next -> next
            | None -> lookup ~prev ~cur pkt
          else lookup ~prev ~cur pkt))
    t.routers

let use_routing t rt =
  use_lookup t (fun ~prev:_ ~cur pkt ->
      Topology.Routing.next_hop_id rt cur ~dst:pkt.Packet.dst)

let use_policy t pol =
  use_lookup t (fun ~prev ~cur pkt ->
      Topology.Policy.next_hop_id pol ~prev ~cur ~dst:pkt.Packet.dst)

let use_ecmp t ecmp =
  use_lookup t (fun ~prev:_ ~cur pkt ->
      Topology.Ecmp.next_hop_id ecmp cur ~dst:pkt.Packet.dst ~flow:pkt.Packet.flow)

let add_multicast_route t ~router ~group ~next_hops ~local =
  Router.add_multicast_route t.routers.(router) ~group ~next_hops ~local

let pin_flow_path t ~flow ~path =
  let rec walk = function
    | a :: (b :: _ as rest) ->
        if Topology.Graph.link t.graph a b = None then
          invalid_arg "Net.pin_flow_path: consecutive nodes not linked";
        Hashtbl.replace t.pins (flow, a) b;
        walk rest
    | [ _ ] | [] -> ()
  in
  walk path

let set_link t ~src ~dst up =
  match iface t ~src ~dst with
  | Some i -> Iface.set_up i up
  | None -> invalid_arg "Net: no such link"

let fail_link t ~src ~dst = set_link t ~src ~dst false

let link_up t ~src ~dst =
  match iface t ~src ~dst with
  | Some i -> Iface.is_up i
  | None -> invalid_arg "Net: no such link"

let set_link_corruption t ~src ~dst p =
  match iface t ~src ~dst with
  | Some i -> Iface.set_corruption i p
  | None -> invalid_arg "Net.set_link_corruption: no such link"
let restore_link t ~src ~dst = set_link t ~src ~dst true

let originate t pkt =
  (match t.probe with Some p -> Probe.on_originate p pkt | None -> ());
  Router.receive_prev t.routers.(pkt.Packet.src) ~prev:(-1) pkt

(* Traffic sources mint packets here so recycling is transparent.  The
   clock goes to [Pool] as the box it is, and a recycled packet copies
   it into its own [created] box and hashes its payload into its own
   bytes: a recycled mint allocates nothing. *)
let make_packet t ~src ~dst ~flow ~size proto =
  let uid = Sim.fresh_id t.sim in
  Pool.acquire t.pool ~clock:t.clock ~uid ~src ~dst ~flow ~size proto

let pool_stats t = Pool.stats t.pool
let run ?until t = Sim.run ?until t.sim
let events_processed t = Sim.events_processed t.sim
let cpu_time_in_run t = Sim.cpu_time_in_run t.sim

type queue_spec =
  | Droptail of int
  | Red of Red.params

type iface_event = {
  time : float;
  router : int;
  next : int;
  kind : Iface.event;
}

type router_event = {
  time : float;
  router : int;
  kind : Router.event;
}

(* The classic engine is one heap; the sharded engine is K data-plane
   heaps plus a coordinator-side control heap ({!Shard}).  Everything
   above this module (probes, detectors, TCP, the fault injector)
   schedules on [sim t], which in sharded mode is the control heap —
   control work then runs at epoch barriers, where every shard clock
   agrees, so its behaviour cannot depend on the shard count. *)
type engine = Single of Sim.t | Sharded of Shard.t

type t = {
  engine : engine;
  seed : int;
  graph : Topology.Graph.t;
  mutable routers : Router.t array;
  mutable iface_listeners : (iface_event -> unit) list;
  mutable router_listeners : (router_event -> unit) list;
  apps : (Packet.t -> unit) list ref array;
  pins : (int * int, int) Hashtbl.t; (* (flow, router) -> next hop *)
  mutable probe : Probe.t option;
  (* Always-on stats ride with the probe: [stats] is the main collector;
     [shard_stats] one local per shard (empty for the classic engine),
     fed inside windows on the shard domains and drained into [stats] at
     every epoch barrier.  [replaying] marks the obs-replay path at a
     flush so events already counted by a shard-local collector are not
     counted again by the main one. *)
  mutable stats : Stats.t option;
  mutable shard_stats : Stats.t array;
  mutable replaying : bool;
  (* Sharded mode: per-node uid counters, so packet identity never
     depends on cross-shard event interleaving.  Only the owning
     shard's domain touches a node's counter. *)
  uid_next : int array;
  (* Whether anything consumes wire observations (probe or data-plane
     listeners).  Pushed down into every Router/Iface [observe] flag so
     the unobserved hot path builds no events at all. *)
  mutable observed : bool;
  mutable has_apps : bool;
  (* Packet recycling: one freelist per shard (index 0 for the classic
     engine); entities release into the pool of the shard that executes
     them, so pools are never contended.  [pool_on] is the effective
     switch: pooling requested AND nothing observing packets beyond
     their network lifetime. *)
  pooling : bool;
  pools : Pool.t array;
  mutable pool_on : bool;
}

let sim t = match t.engine with Single s -> s | Sharded sh -> Shard.ctrl_sim sh

(* Observation elision and pooling are whole-network properties; both
   must be settled before the run starts.  Pooling stays inert while
   observed (events retain packets past their network lifetime) and, in
   sharded mode, while apps are attached (buffered [Obs_app] records
   would outlive the router's release of the packet). *)
let refresh_observe t =
  let observed =
    t.probe <> None || t.iface_listeners <> [] || t.router_listeners <> []
  in
  t.observed <- observed;
  t.pool_on <-
    t.pooling && (not observed)
    && (match t.engine with Single _ -> true | Sharded _ -> not t.has_apps);
  Array.iter
    (fun r ->
      Router.set_observe r observed;
      List.iter (fun i -> Iface.set_observe i observed) (Router.ifaces r))
    t.routers

let data_sim t ~node =
  match t.engine with
  | Single s -> s
  | Sharded sh -> Shard.shard_sim sh (Shard.owner sh node)

let graph t = t.graph
let router t id = t.routers.(id)

let iface t ~src ~dst = Router.iface_to t.routers.(src) dst

let subscribe_iface t f =
  t.iface_listeners <- f :: t.iface_listeners;
  refresh_observe t

let subscribe_router t f =
  t.router_listeners <- f :: t.router_listeners;
  refresh_observe t

let set_probe t probe =
  t.probe <- probe;
  (match probe with
  | Some p ->
      let main = Stats.create ~n:(Topology.Graph.size t.graph) () in
      t.stats <- Some main;
      t.shard_stats <-
        (match t.engine with
        | Single _ -> [||]
        | Sharded sh -> Array.init (Shard.k sh) (fun _ -> Stats.local main));
      Probe.set_stats p (Some main)
  | None ->
      t.stats <- None;
      t.shard_stats <- [||]);
  refresh_observe t
let probe t = t.probe
let stats t = t.stats

(* Listener records are only built when a listener exists: the common
   observed configuration (probe only) pays fields, not boxes. *)
let emit_iface t ~time ~router ~next kind =
  (match t.stats with
  | Some st when not t.replaying -> Stats.on_iface st ~time ~router ~next kind
  | _ -> ());
  (match t.probe with
  | Some p -> Probe.on_iface p ~time ~router ~next kind
  | None -> ());
  match t.iface_listeners with
  | [] -> ()
  | ls ->
      let ev = { time; router; next; kind } in
      List.iter (fun f -> f ev) ls

let emit_router t ~time ~router kind =
  (match t.stats with
  | Some st when not t.replaying -> Stats.on_router st ~time ~router kind
  | _ -> ());
  (match t.probe with
  | Some p -> Probe.on_router p ~time ~router kind
  | None -> ());
  match t.router_listeners with
  | [] -> ()
  | ls ->
      let ev = { time; router; kind } in
      List.iter (fun f -> f ev) ls

let attach_app t ~node f =
  t.apps.(node) := f :: !(t.apps.(node));
  t.has_apps <- true;
  refresh_observe t

(* Uids in sharded mode: high bits are the minting node, low bits a
   per-node counter.  Disjoint from the control plane's small
   [Sim.fresh_id] uids (TCP/Ping packets), and independent of shard
   count by construction. *)
let fresh_uid t ~node =
  match t.engine with
  | Single s -> Sim.fresh_id s
  | Sharded _ ->
      let c = t.uid_next.(node) in
      t.uid_next.(node) <- c + 1;
      ((node + 1) lsl 40) lor c

let fresh_flow_id t = Sim.fresh_id (sim t)

let flow_rng t ~flow =
  match t.engine with
  | Single s -> Sim.rng s
  | Sharded _ -> Random.State.make [| t.seed; flow; 0xf10a |]

(* Deliver one buffered shard observation at an epoch flush, in the
   merged (time, rank, emission) order — probes, listeners and apps see
   exactly the single-heap event stream.  Stats were already collected
   by the shard-local collector when the observation was buffered, so
   the replay is marked and the emit paths skip the main collector. *)
let deliver_obs t (r : Shard.obs_rec) =
  match r.obs with
  | Shard.Obs_iface { router; next; kind } ->
      t.replaying <- true;
      emit_iface t ~time:r.at ~router ~next kind;
      t.replaying <- false
  | Shard.Obs_router { router; kind } ->
      t.replaying <- true;
      emit_router t ~time:r.at ~router kind;
      t.replaying <- false
  | Shard.Obs_originate pkt -> (
      match t.probe with Some p -> Probe.on_originate p pkt | None -> ())
  | Shard.Obs_app { node; pkt } ->
      (* App callbacks may re-enter the network (a TCP endpoint answering
         synchronously); anything they cause is a new event, not a
         replay, so the flag stays down. *)
      List.iter (fun f -> f pkt) !(t.apps.(node))

(* Cross-shard receive as a registered tag: the handoff descriptor is
   (dest router, packet, prev) — no closure crosses the mailbox. *)
let tag_recv = ref 0

let () =
  tag_recv :=
    Sim.new_tag (fun _ a b i -> Router.receive_prev (Obj.obj a) ~prev:i (Obj.obj b))

let create ?(seed = 1) ?(queue = Droptail 64000) ?(jitter_bound = 300e-6) ?shards ?epoch
    ?(pooling = false) ?(poison = false) graph =
  let n = Topology.Graph.size graph in
  let engine =
    match shards with
    | None | Some 0 -> Single (Sim.create ~seed ())
    | Some k -> Sharded (Shard.create ~seed ?epoch ~graph ~k ())
  in
  let npools = match engine with Single _ -> 1 | Sharded sh -> Shard.k sh in
  let t =
    { engine; seed; graph;
      routers = [||];
      iface_listeners = [];
      router_listeners = [];
      apps = Array.init n (fun _ -> ref []);
      pins = Hashtbl.create 16;
      probe = None;
      stats = None;
      shard_stats = [||];
      replaying = false;
      uid_next = Array.make n 0;
      observed = false;
      has_apps = false;
      pooling;
      pools = Array.init npools (fun _ -> Pool.create ~poison ());
      pool_on = false }
  in
  let pool_ix id =
    match engine with Single _ -> 0 | Sharded sh -> Shard.owner sh id
  in
  let release_into id =
    let pool = t.pools.(pool_ix id) in
    fun p -> if t.pool_on then Pool.release pool p
  in
  let node_sim id =
    match engine with
    | Single s -> s
    | Sharded sh -> Shard.shard_sim sh (Shard.owner sh id)
  in
  t.routers <-
    Array.init n (fun id ->
        let sim = node_sim id in
        let jitter =
          match engine with
          | Single _ ->
              fun () ->
                if jitter_bound <= 0.0 then 0.0
                else Random.State.float (Sim.rng sim) jitter_bound
          | Sharded _ ->
              (* Per-router stream: forwarding jitter must not depend on
                 how draws interleave across shards. *)
              let rng = Random.State.make [| seed; id; 0x71e2 |] in
              fun () ->
                if jitter_bound <= 0.0 then 0.0 else Random.State.float rng jitter_bound
        in
        let fresh_uid =
          match engine with
          | Single _ -> None
          | Sharded _ -> Some (fun () -> fresh_uid t ~node:id)
        in
        let local_apps = t.apps.(id) in
        Router.create ~sim ~id ~jitter ?fresh_uid ~release:(release_into id)
          ~on_event:(fun r ev ->
            match engine with
            | Sharded sh when Shard.in_window () ->
                if Array.length t.shard_stats > 0 then
                  Stats.on_router
                    t.shard_stats.(Shard.current ())
                    ~time:(Sim.now sim) ~router:(Router.id r) ev;
                Shard.record sh (Shard.Obs_router { router = Router.id r; kind = ev })
            | _ -> emit_router t ~time:(Sim.now sim) ~router:(Router.id r) ev)
          ~local_deliver:(fun pkt ->
            (* Nodes without apps skip the buffered record entirely:
               the emission would iterate an empty list at the flush. *)
            if !local_apps <> [] then
              match engine with
              | Sharded sh when Shard.in_window () ->
                  Shard.record sh (Shard.Obs_app { node = id; pkt })
              | _ -> List.iter (fun f -> f pkt) !local_apps)
          ());
  let kind =
    match queue with Droptail b -> Iface.Droptail b | Red p -> Iface.Red_queue p
  in
  List.iter
    (fun (l : Topology.Graph.link) ->
      let sim = node_sim l.Topology.Graph.src in
      let dst = l.Topology.Graph.dst in
      let delivery =
        match engine with
        | Single _ -> None
        | Sharded sh ->
            (* Per-link corruption/RED stream plus the cross-shard (or
               same-shard — the event split is identical either way)
               receive handoff. *)
            let rng = Random.State.make [| seed; l.Topology.Graph.src; dst; 0xc0f1 |] in
            let rdst = Obj.repr t.routers.(dst) in
            let dshard = Shard.owner sh dst in
            Some
              (Iface.Split
                 { rng;
                   handoff =
                     (fun ~time ~rank ~prev pkt ->
                       Shard.post sh ~dest:dshard ~time ~rank ~tag:!tag_recv
                         ~i:prev rdst (Obj.repr pkt)) })
      in
      let rdst = t.routers.(dst) in
      let iface =
        Iface.create ~sim ~link:l ~kind ?delivery
          ~release:(release_into l.Topology.Graph.src)
          ~on_event:(fun i ev ->
            match engine with
            | Sharded sh when Shard.in_window () ->
                if Array.length t.shard_stats > 0 then
                  Stats.on_iface
                    t.shard_stats.(Shard.current ())
                    ~time:(Sim.now sim) ~router:(Iface.owner i)
                    ~next:(Iface.next_hop i) ev;
                Shard.record sh
                  (Shard.Obs_iface
                     { router = Iface.owner i; next = Iface.next_hop i; kind = ev })
            | _ ->
                emit_iface t ~time:(Sim.now sim) ~router:(Iface.owner i)
                  ~next:(Iface.next_hop i) ev)
          ~deliver:(fun ~prev pkt -> Router.receive_prev rdst ~prev pkt)
          ()
      in
      Router.add_iface t.routers.(l.Topology.Graph.src) iface)
    (Topology.Graph.links graph);
  refresh_observe t;
  t

let with_pins t r fallback ~prev pkt =
  match Hashtbl.find_opt t.pins (pkt.Packet.flow, Router.id r) with
  | Some next -> Some next
  | None -> fallback ~prev pkt

let use_routing t rt =
  (* The common forwarding plane goes through the int-returning table
     lookup: no option box per hop, and no pin-key tuple unless a pin
     actually exists. *)
  Array.iter
    (fun r ->
      let id = Router.id r in
      Router.set_forwarding_id r (fun ~prev:_ pkt ->
          if Hashtbl.length t.pins > 0 then
            match Hashtbl.find_opt t.pins (pkt.Packet.flow, id) with
            | Some next -> next
            | None -> Topology.Routing.next_hop_id rt id ~dst:pkt.Packet.dst
          else Topology.Routing.next_hop_id rt id ~dst:pkt.Packet.dst))
    t.routers

let use_policy t pol =
  Array.iter
    (fun r ->
      Router.set_forwarding r
        (with_pins t r (fun ~prev pkt ->
             Topology.Policy.next_hop pol ~prev ~cur:(Router.id r) ~dst:pkt.Packet.dst)))
    t.routers

let use_ecmp t ecmp =
  Array.iter
    (fun r ->
      Router.set_forwarding r
        (with_pins t r (fun ~prev:_ pkt ->
             Topology.Ecmp.next_hop ecmp (Router.id r) ~dst:pkt.Packet.dst
               ~flow:pkt.Packet.flow)))
    t.routers

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

let set_link_corruption t ~src ~dst p =
  match iface t ~src ~dst with
  | Some i -> Iface.set_corruption i p
  | None -> invalid_arg "Net.set_link_corruption: no such link"
let restore_link t ~src ~dst = set_link t ~src ~dst true

let originate t pkt =
  match t.engine with
  | Sharded sh when Shard.in_window () ->
      if Array.length t.shard_stats > 0 then
        Stats.on_originate
          t.shard_stats.(Shard.current ())
          ~time:pkt.Packet.created pkt;
      (* The buffered record only feeds the probe; skip it when no probe
         can consume it at the flush. *)
      if t.probe <> None then Shard.record sh (Shard.Obs_originate pkt);
      Router.receive_prev t.routers.(pkt.Packet.src) ~prev:(-1) pkt
  | _ ->
      (match t.stats with
      | Some st -> Stats.on_originate st ~time:pkt.Packet.created pkt
      | None -> ());
      (match t.probe with Some p -> Probe.on_originate p pkt | None -> ());
      Router.receive_prev t.routers.(pkt.Packet.src) ~prev:(-1) pkt

(* Traffic sources mint packets here so recycling is transparent: a
   freelisted record when the pool is live, a fresh one otherwise. *)
let make_packet t ~src ~dst ~flow ~size proto =
  let uid = fresh_uid t ~node:src in
  let now = Sim.now (data_sim t ~node:src) in
  if t.pool_on then
    let ix = match t.engine with Single _ -> 0 | Sharded sh -> Shard.owner sh src in
    Pool.acquire t.pools.(ix) ~now ~uid ~src ~dst ~flow ~size proto
  else Packet.make_at ~now ~uid ~src ~dst ~flow ~size proto

(* Control-plane sources (TCP, Ping) mint with uids from the control
   heap's counter — identity unchanged — but still draw records from the
   classic engine's pool when recycling is live.  Sharded control
   packets stay fresh: pooling is inert there whenever apps are
   attached, and control endpoints always attach one. *)
let make_ctrl_packet t ~src ~dst ~flow ~size proto =
  let s = sim t in
  let uid = Sim.fresh_id s in
  let now = Sim.now s in
  match t.engine with
  | Single _ when t.pool_on ->
      Pool.acquire t.pools.(0) ~now ~uid ~src ~dst ~flow ~size proto
  | _ -> Packet.make_at ~now ~uid ~src ~dst ~flow ~size proto

let pooling_active t = t.pool_on

let pool_stats t =
  Array.fold_left
    (fun (acc : Pool.stats) p ->
      let s = Pool.stats p in
      { Pool.fresh = acc.fresh + s.fresh;
        recycled = acc.recycled + s.recycled;
        released = acc.released + s.released;
        available = acc.available + s.available })
    { Pool.fresh = 0; recycled = 0; released = 0; available = 0 }
    t.pools

let run ?until ?on_epoch t =
  match t.engine with
  | Single s ->
      ignore on_epoch;
      Sim.run ?until s
  | Sharded sh ->
      (* Fold the per-shard stats collectors into the main one at every
         epoch barrier, before any user epoch work reads them.  The fold
         is exact integer arithmetic, so the aggregate is independent of
         the shard count. *)
      let on_epoch =
        match t.stats with
        | Some main when Array.length t.shard_stats > 0 ->
            Some
              (fun ~now ->
                Array.iter (fun s -> Stats.drain ~into:main s) t.shard_stats;
                match on_epoch with Some f -> f ~now | None -> ())
        | _ -> on_epoch
      in
      Shard.run ?until ?on_epoch sh ~emit:(deliver_obs t)

let shards t = match t.engine with Single _ -> 0 | Sharded sh -> Shard.k sh
let shard_engine t = match t.engine with Single _ -> None | Sharded sh -> Some sh

let events_processed t =
  match t.engine with
  | Single s -> Sim.events_processed s
  | Sharded sh -> Shard.events_processed sh

let cpu_time_in_run t =
  match t.engine with
  | Single s -> Sim.cpu_time_in_run s
  | Sharded sh -> Shard.cpu_time_in_run sh

type kind =
  | Droptail of int
  | Red_queue of Red.params

type event =
  | Enqueued
  | Drop_congestion
  | Drop_red_early
  | Drop_link_down
  | Drop_corrupted
  | Transmit_start
  | Delivered

(* A set of event kinds is a bit set, one bit per constructor of
   [event]: an emit site tests its own bit, so an interface reports a
   transition only for a kind some consumer wants. *)
type kinds = int

let b_enqueued = 1
let b_drop_congestion = 2
let b_drop_red_early = 4
let b_drop_link_down = 8
let b_drop_corrupted = 16
let b_transmit_start = 32
let b_delivered = 64
let all_kinds = 127

let event_bit = function
  | Enqueued -> b_enqueued
  | Drop_congestion -> b_drop_congestion
  | Drop_red_early -> b_drop_red_early
  | Drop_link_down -> b_drop_link_down
  | Drop_corrupted -> b_drop_corrupted
  | Transmit_start -> b_transmit_start
  | Delivered -> b_delivered

let kinds l = List.fold_left (fun acc ev -> acc lor event_bit ev) 0 l
let union = ( lor )
let wants k ev = k land event_bit ev <> 0

type queue = Fifo of Queue_fifo.t | Red_q of Red.t

type t = {
  sim : Sim.t;
  clock : Sim.fbox;  (* the simulation's clock, read without boxing *)
  link : Topology.Graph.link;
  queue : queue;
  red : Red.t option;  (* the RED queue, built once: read per attacker packet *)
  on_event : event -> Packet.t -> unit;
  deliver : prev:int -> Packet.t -> unit;
  release : Packet.t -> unit;  (* return a dead packet to its pool *)
  (* The packet on the wire finishes at [tx_end] under the key
     [tx_key], reserved when its serialization started.  The
     transmission-end event is pushed with that key only once a packet
     waits behind it ([txend_pending]); until then it is virtual, and
     the interface is busy while the virtual event has not fired. *)
  tx_end : Sim.fbox;
  mutable tx_key : int;
  mutable txend_pending : bool;
  (* The processing jitter of the router at [link.dst], uniform in
     [0, jitter_bound): drawn at transmit-start and folded into the
     arrival event's time. *)
  jitter_bound : float;
  arrive_at : Sim.fbox;  (* scratch: the arrival event's time being scheduled *)
  mutable observe : kinds;  (* the kinds some consumer reads *)
  mutable up : bool;
  mutable corruption : float;
  (* Always-on per-interface counters (the dissertation's per-router
     counter state): plain integer bumps on the hot path. *)
  mutable tx_packets : int;
  mutable dropped_packets : int;
}

(* Event tags for the flat heap (registered below, once the handlers'
   callees exist).  Tagged scheduling replaces the two closures the old
   hot path boxed per transmission. *)
let tag_txend = ref 0
let tag_arrive = ref 0

let create ~sim ~link ~kind ~jitter_bound ~release ~on_event ~deliver =
  let queue =
    match kind with
    | Droptail limit_bytes -> Fifo (Queue_fifo.create ~limit_bytes ())
    | Red_queue params -> Red_q (Red.create ~params ~rng:(Sim.rng sim) ())
  in
  let red = match queue with Red_q q -> Some q | Fifo _ -> None in
  { sim; clock = Sim.clock sim; link; queue; red; on_event; deliver; release;
    tx_end = { Sim.f = Float.neg_infinity }; tx_key = 0; txend_pending = false;
    jitter_bound; arrive_at = { Sim.f = 0.0 }; observe = all_kinds; up = true;
    corruption = 0.0; tx_packets = 0; dropped_packets = 0 }

let owner t = t.link.Topology.Graph.src
let next_hop t = t.link.Topology.Graph.dst
let link t = t.link
let set_observe t v = t.observe <- v

let occupancy t =
  match t.queue with Fifo q -> Queue_fifo.occupancy q | Red_q q -> Red.occupancy q

let queue_limit t =
  match t.queue with
  | Fifo q -> Queue_fifo.limit q
  | Red_q q -> (Red.params q).Red.limit_bytes

let red_state t = t.red

let backlog t =
  match t.queue with Fifo q -> Queue_fifo.length q | Red_q q -> Red.length q

let queue_empty t =
  match t.queue with
  | Fifo q -> Queue_fifo.is_empty q
  | Red_q q -> Red.is_empty q

(* pre: not empty *)
let dequeue_exn t =
  match t.queue with
  | Fifo q -> Queue_fifo.dequeue_exn q
  | Red_q q -> Red.dequeue_exn q ~clock:t.clock

let push_txend t =
  t.txend_pending <- true;
  Sim.schedule_ev_keyed t.sim ~at:t.tx_end ~key:t.tx_key ~tag:!tag_txend ~i:0
    (Obj.repr t) Sim.nil

(* Serialize the head packet; at transmission end + propagation delay
   the packet reaches the neighbour, at [arrive].  The neighbour's
   processing jitter j is drawn here and the arrival event fires at
   [arrive + j], where the neighbour forwards and enqueues the packet
   at once: one queue event per hop.  [arrive] rides in the packet for
   the arrival-side events' stamp.  A packet for the neighbour itself
   is delivered there unjittered. *)
let transmit t =
  let p = dequeue_exn t in
  (* Busy while [on_event] runs.  The key is reserved after it, so every
     event a listener schedules keeps the key it would have had if the
     transmission-end event were pushed here. *)
  t.txend_pending <- true;
  t.tx_packets <- t.tx_packets + 1;
  if t.observe land b_transmit_start <> 0 then t.on_event Transmit_start p;
  let now = t.clock.f in
  let tx = float_of_int p.Packet.size /. t.link.Topology.Graph.bw in
  t.tx_end.f <- now +. tx;
  t.tx_key <- Sim.reserve_key t.sim;
  (* Only a packet already waiting needs the transmission end to start
     it; a zero-length transmission is pushed because a reserved event
     must lie in the future. *)
  if (not (queue_empty t)) || t.tx_end.f <= now then push_txend t
  else t.txend_pending <- false;
  let arrive = now +. (tx +. t.link.Topology.Graph.delay) in
  p.Packet.spans.arrive <- arrive;
  if p.Packet.dst = next_hop t then t.arrive_at.f <- 0.0
  else Sim.jitter_into (Sim.rng t.sim) ~bound:t.jitter_bound t.arrive_at;
  t.arrive_at.f <- arrive +. t.arrive_at.f;
  Sim.schedule_ev t.sim ~at:t.arrive_at ~tag:!tag_arrive ~i:0 (Obj.repr t) (Obj.repr p)

(* Start the next transmission if the wire is free.  While a packet is
   on it, a waiting packet needs the transmission-end event in the queue
   to start it. *)
let kick t =
  if (not t.txend_pending) && not (queue_empty t) then
    if not (Sim.fired t.sim ~at:t.tx_end ~key:t.tx_key) then push_txend t
    else if t.up then transmit t

(* Arrival, once the neighbour's jitter has passed: the corruption coin
   comes from the simulation stream at this instant. *)
let arrive t p =
  if t.corruption > 0.0 && Random.State.float (Sim.rng t.sim) 1.0 < t.corruption
  then begin
    t.dropped_packets <- t.dropped_packets + 1;
    if t.observe land b_drop_corrupted <> 0 then t.on_event Drop_corrupted p;
    t.release p
  end
  else begin
    if t.observe land b_delivered <> 0 then t.on_event Delivered p;
    t.deliver ~prev:(owner t) p
  end

let () =
  tag_txend :=
    Sim.new_tag (fun _ a _ _ ->
        let t : t = Obj.obj a in
        t.txend_pending <- false;
        kick t);
  tag_arrive := Sim.new_tag (fun _ a b _ -> arrive (Obj.obj a) (Obj.obj b))

let is_up t = t.up

let set_corruption t p =
  if p < 0.0 || p > 1.0 then invalid_arg "Iface.set_corruption: probability outside [0,1]";
  t.corruption <- p

let set_up t up =
  t.up <- up;
  if up then kick t

let enqueue t p =
  if not t.up then begin
    t.dropped_packets <- t.dropped_packets + 1;
    if t.observe land b_drop_link_down <> 0 then t.on_event Drop_link_down p;
    t.release p
  end
  else begin
  let verdict =
    match t.queue with
    | Fifo q -> if Queue_fifo.try_enqueue q p then `Enqueued else `Forced_drop
    | Red_q q -> Red.enqueue q ~clock:t.clock ~link_bw:t.link.Topology.Graph.bw p
  in
  match verdict with
  | `Enqueued ->
      if t.observe land b_enqueued <> 0 then t.on_event Enqueued p;
      kick t
  | `Forced_drop ->
      t.dropped_packets <- t.dropped_packets + 1;
      if t.observe land b_drop_congestion <> 0 then t.on_event Drop_congestion p;
      t.release p
  | `Early_drop ->
      t.dropped_packets <- t.dropped_packets + 1;
      if t.observe land b_drop_red_early <> 0 then t.on_event Drop_red_early p;
      t.release p
  end

let tx_packets t = t.tx_packets
let dropped_packets t = t.dropped_packets

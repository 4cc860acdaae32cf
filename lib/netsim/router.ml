type context = {
  clock : Sim.fbox;
  mutable prev : int;
  mutable next_hop : int;
  mutable queue_occupancy : int;
  mutable queue_limit : int;
  mutable red : Red.t option;
}

type action =
  | Forward
  | Drop
  | Modify of int64
  | Delay of float

type behavior = context -> Packet.t -> action

let honest _ _ = Forward

type event =
  | Malicious_drop
  | Fragmented
  | Malicious_modify
  | Malicious_delay
  | Fabricated
  | No_route
  | Ttl_expired
  | Delivered_local

(* A set of event kinds is a bit set, one bit per constructor of
   [event], as in {!Iface}. *)
type kinds = int

let b_malicious_drop = 1
let b_fragmented = 2
let b_malicious_modify = 4
let b_malicious_delay = 8
let b_fabricated = 16
let b_no_route = 32
let b_ttl_expired = 64
let b_delivered_local = 128
let all_kinds = 255

let event_bit = function
  | Malicious_drop -> b_malicious_drop
  | Fragmented -> b_fragmented
  | Malicious_modify -> b_malicious_modify
  | Malicious_delay -> b_malicious_delay
  | Fabricated -> b_fabricated
  | No_route -> b_no_route
  | Ttl_expired -> b_ttl_expired
  | Delivered_local -> b_delivered_local

let kinds l = List.fold_left (fun acc ev -> acc lor event_bit ev) 0 l
let union = ( lor )
let wants k ev = k land event_bit ev <> 0

type t = {
  sim : Sim.t;
  clock : Sim.fbox;  (* the simulation's clock, read without boxing *)
  id : int;
  (* Per-packet processing jitter, uniform in [0, jitter_bound), drawn
     from the simulation stream into [enqueue_at] for a packet whose
     visit has not spent it ({!enqueue_after_jitter}): a
     [unit -> float] closure, or [Random.State.float] itself, would box
     every draw. *)
  rng : Random.State.t;
  jitter_bound : float;
  enqueue_at : Sim.fbox;  (* scratch: when the jittered packet enqueues *)
  on_event : event -> next:int -> Packet.t -> float -> unit;
  local_deliver : Packet.t -> unit;
  release : Packet.t -> unit;  (* return a dead packet to its pool *)
  (* Output interfaces by neighbour id: [by_next] is the per-hop lookup
     (no hashing), [out] keeps the historical {!ifaces} order. *)
  out : (int, Iface.t) Hashtbl.t;
  by_next : Iface.t option array;  (* one slot per router id *)
  mutable observe : kinds;  (* the kinds some consumer reads *)
  (* prev is the previous-hop router id, -1 for locally originated: the
     int encoding keeps the per-hop path free of option boxes. *)
  mutable forwarding : prev:int -> Packet.t -> int;
  mutable behavior : behavior;
  (* What the behavior sees, refilled for each packet it judges: the
     behavior borrows it for the call, so a compromised router builds
     no record per packet. *)
  context : context;
  mutable mtu : int option;
  mcast : (int, int list * bool) Hashtbl.t; (* group -> (branches, local) *)
  (* Always-on count of local deliveries: a plain integer bump. *)
  mutable delivered_packets : int;
}

let create ~sim ~id ~n ~jitter_bound ~release ~on_event ~local_deliver =
  { sim; clock = Sim.clock sim; id; rng = Sim.rng sim; jitter_bound; enqueue_at = { Sim.f = 0.0 };
    on_event; local_deliver; release;
    out = Hashtbl.create ~random:false 4; by_next = Array.make n None; observe = all_kinds;
    forwarding = (fun ~prev:_ _ -> -1); behavior = honest;
    context =
      { clock = Sim.clock sim; prev = -1; next_hop = -1; queue_occupancy = 0;
        queue_limit = 0; red = None };
    mtu = None;
    mcast = Hashtbl.create 2;
    delivered_packets = 0 }

let id t = t.id
let set_observe t v = t.observe <- v

let add_iface t iface =
  if Iface.owner iface <> t.id then invalid_arg "Router.add_iface: foreign interface";
  let next = Iface.next_hop iface in
  if next < 0 || next >= Array.length t.by_next then
    invalid_arg "Router.add_iface: neighbour id outside the network";
  Hashtbl.replace t.out next iface;
  t.by_next.(next) <- Some iface

let iface_to t next =
  if next >= 0 && next < Array.length t.by_next then t.by_next.(next) else None

(* [out] is unseeded, so this order does not depend on OCAMLRUNPARAM=R. *)
let ifaces t = Hashtbl.fold (fun _ i acc -> i :: acc) t.out []

let set_forwarding_id t f = t.forwarding <- f

let set_behavior t b = t.behavior <- b
let add_multicast_route t ~group ~next_hops ~local =
  List.iter
    (fun nh ->
      if iface_to t nh = None then
        invalid_arg "Router.add_multicast_route: no interface to a listed branch")
    next_hops;
  Hashtbl.replace t.mcast group (next_hops, local)

let set_mtu t m =
  (match m with
  | Some v when v <= 0 -> invalid_arg "Router.set_mtu: mtu must be positive"
  | _ -> ());
  t.mtu <- m

(* Post-jitter enqueue as a tagged event, for a packet whose visit has
   not spent its jitter: it schedules nothing but (iface, packet) into
   the flat heap. *)
let tag_enqueue = ref 0

let () =
  tag_enqueue :=
    Sim.new_tag (fun _ a b _ -> Iface.enqueue (Obj.obj a) (Obj.obj b))

(* One jitter per router visit.  A packet whose visit's jitter is
   spent (it arrived from a link, or from a CBR/Poisson tick, at
   [arrive + j]: [spans.arrive] is set) enqueues at once.  Any other
   packet draws its jitter, uniform in [0, jitter_bound), into
   [enqueue_at], turned into the enqueue time in place: no float
   crosses a call, so a jittered hop allocates nothing. *)
let enqueue_after_jitter t iface pkt =
  let at = t.enqueue_at in
  if pkt.Packet.spans.Packet.arrive >= 0.0 then at.f <- 0.0
  else Sim.jitter_into t.rng ~bound:t.jitter_bound at;
  if at.f <= 0.0 then Iface.enqueue iface pkt
  else begin
    at.f <- t.clock.f +. at.f;
    Sim.schedule_ev t.sim ~at ~tag:!tag_enqueue ~i:0 (Obj.repr iface) (Obj.repr pkt)
  end

(* §7.4.4: splitting produces fresh packets whose fingerprints no
   upstream router ever announced. *)
let fragment t ~next iface pkt mtu =
  let pieces = (pkt.Packet.size + mtu - 1) / mtu in
  if t.observe land b_fragmented <> 0 then
    t.on_event Fragmented ~next pkt (float_of_int pieces);
  let remaining = ref pkt.Packet.size in
  for _ = 1 to pieces do
    let size = min mtu !remaining in
    remaining := !remaining - size;
    let frag =
      Packet.make ~sim:t.sim ~src:pkt.Packet.src
        ~dst:pkt.Packet.dst ~flow:pkt.Packet.flow ~size ~ttl:pkt.Packet.ttl
        pkt.Packet.proto
    in
    (* Fragments stay on the original packet's trace: causally the
       same injection, even though their uids are fresh. *)
    Packet.set_trace frag pkt.Packet.trace;
    (* They are the original's visit, with its jitter. *)
    frag.Packet.spans.Packet.arrive <- pkt.Packet.spans.Packet.arrive;
    enqueue_after_jitter t iface frag
  done;
  t.release pkt

let fragment_if_needed t ~next iface pkt =
  match t.mtu with
  | Some mtu when pkt.Packet.size > mtu -> fragment t ~next iface pkt mtu
  | Some _ | None -> enqueue_after_jitter t iface pkt

let forward_one t ~prev ~next pkt =
  match iface_to t next with
  | None ->
      if t.observe land b_no_route <> 0 then t.on_event No_route ~next:(-1) pkt 0.0;
      t.release pkt
  | Some iface ->
      (* Honest routers — the overwhelmingly common case — skip the
         behavior context entirely: it exists to show a compromised
         forwarding plane its state.  The router's one context is
         refilled in place (its time is the clock it holds), so judging
         a packet allocates nothing. *)
      if t.behavior == honest then fragment_if_needed t ~next iface pkt
      else begin
        let ctx = t.context in
        ctx.prev <- prev;
        ctx.next_hop <- next;
        ctx.queue_occupancy <- Iface.occupancy iface;
        ctx.queue_limit <- Iface.queue_limit iface;
        ctx.red <- Iface.red_state iface;
        match t.behavior ctx pkt with
        | Forward -> fragment_if_needed t ~next iface pkt
        | Drop ->
            if t.observe land b_malicious_drop <> 0 then
              t.on_event Malicious_drop ~next pkt 0.0;
            t.release pkt
        | Modify mask ->
            Packet.xor_payload pkt mask;
            if t.observe land b_malicious_modify <> 0 then
              t.on_event Malicious_modify ~next pkt 0.0;
            fragment_if_needed t ~next iface pkt
        | Delay d ->
            if t.observe land b_malicious_delay <> 0 then
              t.on_event Malicious_delay ~next pkt d;
            Sim.schedule t.sim ~delay:d (fun () ->
                fragment_if_needed t ~next iface pkt)
      end

let multicast t ~prev pkt (branches, local) =
  (* Duplicate per branch (same identity, §7.4.3); deliver locally if
     this router is a leaf. *)
  let expired =
    prev >= 0
    && begin
         Packet.set_ttl pkt (pkt.Packet.ttl - 1);
         pkt.Packet.ttl <= 0
       end
  in
  if expired then begin
    if t.observe land b_ttl_expired <> 0 then t.on_event Ttl_expired ~next:(-1) pkt 0.0;
    t.release pkt
  end
  else begin
    if local then begin
      t.delivered_packets <- t.delivered_packets + 1;
      if t.observe land b_delivered_local <> 0 then
      t.on_event Delivered_local ~next:(-1) pkt 0.0;
      t.local_deliver pkt
    end;
    List.iter (fun next -> forward_one t ~prev ~next (Packet.clone pkt)) branches;
    t.release pkt
  end

let unicast t ~prev pkt =
  if pkt.Packet.dst = t.id then begin
    t.delivered_packets <- t.delivered_packets + 1;
    if t.observe land b_delivered_local <> 0 then
      t.on_event Delivered_local ~next:(-1) pkt 0.0;
    t.local_deliver pkt;
    t.release pkt
  end
  else begin
    (* TTL is only spent on transit hops. *)
    let expired =
      prev >= 0
      && begin
           Packet.set_ttl pkt (pkt.Packet.ttl - 1);
           pkt.Packet.ttl <= 0
         end
    in
    if expired then begin
      if t.observe land b_ttl_expired <> 0 then t.on_event Ttl_expired ~next:(-1) pkt 0.0;
      t.release pkt
    end
    else begin
      let next = t.forwarding ~prev pkt in
      if next < 0 then begin
        if t.observe land b_no_route <> 0 then t.on_event No_route ~next:(-1) pkt 0.0;
        t.release pkt
      end
      else forward_one t ~prev ~next pkt
    end
  end

(* Routers outside every multicast tree skip the group lookup's hash. *)
let receive_prev t ~prev pkt =
  if Hashtbl.length t.mcast = 0 then unicast t ~prev pkt
  else
    match Hashtbl.find_opt t.mcast pkt.Packet.dst with
    | Some route -> multicast t ~prev pkt route
    | None -> unicast t ~prev pkt

let fabricate t ~next pkt =
  match iface_to t next with
  | None -> invalid_arg "Router.fabricate: no interface to that neighbour"
  | Some iface ->
      if t.observe land b_fabricated <> 0 then t.on_event Fabricated ~next pkt 0.0;
      Iface.enqueue iface pkt

let delivered_packets t = t.delivered_packets

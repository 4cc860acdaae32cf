(* A source is a tagged event.  The packet due at [nominal] is
   stamped [created = nominal], and its tick fires at [next] =
   [nominal + j]: the source router's processing jitter is spent before
   the router sees the packet, so the router enqueues it at once and a
   sent packet costs no event beyond its tick.  Both times live in
   flat boxes and the gap is written into one, so a tick schedules
   itself without boxing a float or building a closure.  The gap and
   the jitter are drawn, and the key taken, after the packet is sent:
   outputs depend on that order. *)
type t = {
  flow : int;
  mutable sent : int;
  net : Net.t;
  clock : Sim.fbox;
  src : int;
  dst : int;
  size : int;
  stop : float;
  nominal : Sim.fbox;
  next : Sim.fbox;
  gap : Sim.fbox -> unit;  (* writes the next inter-departure time *)
}

let flow_id t = t.flow
let sent t = t.sent

(* Written so NaN fails every test: [nan <= 0.0] is false too. *)
let check_args ~rate_pps ~size ~start ~stop =
  if not (rate_pps > 0.0 && Float.is_finite rate_pps) then
    invalid_arg "Flow: rate must be positive and finite";
  if size <= 0 then invalid_arg "Flow: size must be positive";
  if not (Float.is_finite start) || Float.is_nan stop then
    invalid_arg "Flow: start must be finite and stop a number";
  if stop < start then invalid_arg "Flow: stop before start"

let tag_tick = ref 0

(* A gap shorter than the last packet's jitter can put [nominal + j]
   before now: the tick then fires now, which still lies in
   [nominal, nominal + jitter_bound) because the last tick did. *)
let schedule sim t =
  Sim.jitter_into (Sim.rng sim) ~bound:(Net.jitter_bound t.net) t.next;
  t.next.f <- t.nominal.f +. t.next.f;
  if t.next.f < t.clock.f then t.next.f <- t.clock.f;
  Sim.schedule_ev sim ~at:t.next ~tag:!tag_tick ~i:0 (Obj.repr t) Sim.nil

let tick sim t =
  if t.nominal.f <= t.stop then begin
    let pkt =
      Net.make_packet t.net ~src:t.src ~dst:t.dst ~flow:t.flow ~size:t.size Packet.Udp
    in
    pkt.Packet.created.f <- t.nominal.f;
    pkt.Packet.spans.Packet.arrive <- t.nominal.f;
    t.sent <- t.sent + 1;
    Net.originate t.net pkt;
    t.gap t.next;
    t.nominal.f <- t.nominal.f +. t.next.f;
    schedule sim t
  end

let () = tag_tick := Sim.new_tag (fun sim a _ _ -> tick sim (Obj.obj a))

let generator net ~flow ~src ~dst ~size ~start ~stop ~gap =
  let sim = Net.sim net in
  if start < Sim.now sim then invalid_arg "Flow: start is in the past";
  let t =
    { flow; sent = 0; net; clock = Sim.clock sim; src; dst; size; stop;
      nominal = { Sim.f = start }; next = { Sim.f = start }; gap }
  in
  schedule sim t;
  t

let cbr net ~src ~dst ~rate_pps ~size ~start ~stop =
  check_args ~rate_pps ~size ~start ~stop;
  generator net ~flow:(Net.fresh_flow_id net) ~src ~dst ~size ~start ~stop
    ~gap:(fun b -> b.Sim.f <- 1.0 /. rate_pps)

let poisson net ~src ~dst ~rate_pps ~size ~start ~stop =
  check_args ~rate_pps ~size ~start ~stop;
  let flow = Net.fresh_flow_id net in
  let rng = Sim.rng (Net.sim net) in
  generator net ~flow ~src ~dst ~size ~start ~stop ~gap:(fun b ->
      b.Sim.f <- Mrstats.Variate.exponential rng ~rate:rate_pps)

let delivered_counter net ~node ~flow =
  let count = ref 0 in
  Net.attach_app net ~node (fun pkt -> if pkt.Packet.flow = flow then incr count);
  fun () -> !count

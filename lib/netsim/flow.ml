(* A source is a tagged event: its next send time lives in [next] and
   its gap is written there, so a tick schedules itself without boxing
   a float or building a closure.  The time is now plus the gap, and
   the key is drawn after the packet is sent, as [Sim.schedule ~delay]
   would: outputs depend on both. *)
type t = {
  flow : int;
  mutable sent : int;
  net : Net.t;
  clock : Sim.fbox;
  src : int;
  dst : int;
  size : int;
  stop : float;
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

let tick sim t =
  if t.clock.f <= t.stop then begin
    let pkt =
      Net.make_packet t.net ~src:t.src ~dst:t.dst ~flow:t.flow ~size:t.size Packet.Udp
    in
    t.sent <- t.sent + 1;
    Net.originate t.net pkt;
    t.gap t.next;
    t.next.f <- t.clock.f +. t.next.f;
    Sim.schedule_ev sim ~at:t.next ~tag:!tag_tick ~i:0 (Obj.repr t) Sim.nil
  end

let () = tag_tick := Sim.new_tag (fun sim a _ _ -> tick sim (Obj.obj a))

let generator net ~flow ~src ~dst ~size ~start ~stop ~gap =
  let sim = Net.sim net in
  let t =
    { flow; sent = 0; net; clock = Sim.clock sim; src; dst; size; stop;
      next = { Sim.f = start }; gap }
  in
  Sim.schedule_ev sim ~at:t.next ~tag:!tag_tick ~i:0 (Obj.repr t) Sim.nil;
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

type t = { flow : int; mutable sent : int }

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

let generator net ~flow ~src ~dst ~size ~start ~stop ~gap =
  let sim = Net.sim net in
  let t = { flow; sent = 0 } in
  let rec tick () =
    if Sim.now sim <= stop then begin
      let pkt = Net.make_packet net ~src ~dst ~flow:t.flow ~size Packet.Udp in
      t.sent <- t.sent + 1;
      Net.originate net pkt;
      Sim.schedule sim ~delay:(gap ()) tick
    end
  in
  Sim.schedule_at sim ~time:start tick;
  t

let cbr net ~src ~dst ~rate_pps ~size ~start ~stop =
  check_args ~rate_pps ~size ~start ~stop;
  generator net ~flow:(Net.fresh_flow_id net) ~src ~dst ~size ~start ~stop
    ~gap:(fun () -> 1.0 /. rate_pps)

let poisson net ~src ~dst ~rate_pps ~size ~start ~stop =
  check_args ~rate_pps ~size ~start ~stop;
  let flow = Net.fresh_flow_id net in
  let rng = Sim.rng (Net.sim net) in
  generator net ~flow ~src ~dst ~size ~start ~stop ~gap:(fun () ->
      Mrstats.Variate.exponential rng ~rate:rate_pps)

let delivered_counter net ~node ~flow =
  let count = ref 0 in
  Net.attach_app net ~node (fun pkt -> if pkt.Packet.flow = flow then incr count);
  fun () -> !count

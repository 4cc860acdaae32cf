type t = {
  flow : int;
  mutable sent : int;
  mutable samples_rev : (float * float) list;
  sent_at : (int, float) Hashtbl.t;
}

(* Request size, bytes; the reply echoes it. *)
let size = 100

let start net ~src ~dst ?(interval = 1.0) ~start ~stop () =
  if not (interval > 0.0 && Float.is_finite interval) then
    invalid_arg "Ping.start: interval must be positive and finite";
  let sim = Net.sim net in
  let t = { flow = Sim.fresh_id sim; sent = 0; samples_rev = []; sent_at = Hashtbl.create 64 } in
  (* Responder at dst: answer Ping with Pong on the same flow. *)
  Net.attach_app net ~node:dst (fun pkt ->
      if pkt.Packet.flow = t.flow then begin
        match pkt.Packet.proto with
        | Packet.Ping seq ->
            let reply =
              Net.make_packet net ~src:dst ~dst:src ~flow:t.flow
                ~size:pkt.Packet.size (Packet.Pong seq)
            in
            Net.originate net reply
        | Packet.Pong _ | Packet.Udp | Packet.Tcp _ -> ()
      end);
  (* Collector at src. *)
  Net.attach_app net ~node:src (fun pkt ->
      if pkt.Packet.flow = t.flow then begin
        match pkt.Packet.proto with
        | Packet.Pong seq -> (
            match Hashtbl.find_opt t.sent_at seq with
            | Some sent_time ->
                Hashtbl.remove t.sent_at seq;
                t.samples_rev <- (sent_time, Sim.now sim -. sent_time) :: t.samples_rev
            | None -> ())
        | Packet.Ping _ | Packet.Udp | Packet.Tcp _ -> ()
      end);
  let rec tick seq () =
    if Sim.now sim <= stop then begin
      let pkt = Net.make_packet net ~src ~dst ~flow:t.flow ~size (Packet.Ping seq) in
      t.sent <- t.sent + 1;
      Hashtbl.replace t.sent_at seq (Sim.now sim);
      Net.originate net pkt;
      Sim.schedule sim ~delay:interval (tick (seq + 1))
    end
  in
  Sim.schedule_at sim ~time:start (tick 0);
  t

let samples t = List.rev t.samples_rev
let sent t = t.sent
let lost t = Hashtbl.length t.sent_at

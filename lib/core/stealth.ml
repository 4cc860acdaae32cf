type t = {
  mutable sent : int;
  mutable answered : int;
}

let probe_tag key uid = Crypto_sim.Siphash.hash_int64s key [ Int64.of_int uid; 0x0bL ]
let reply_tag key uid = Crypto_sim.Siphash.hash_int64s key [ Int64.of_int uid; 0xacL ]

(* Probe size, bytes: the victim data flows' packet size. *)
let size = 1000

let start ~net ~src ~dst ~flow ~key ?(interval = 0.5) ~start ~stop () =
  if not (interval > 0.0 && Float.is_finite interval) then
    invalid_arg "Stealth.start: interval must be positive and finite";
  let sim = Netsim.Net.sim net in
  let t = { sent = 0; answered = 0 } in
  let expected_replies = Hashtbl.create 64 in
  (* Responder: a packet of the tunnelled flow whose payload carries the
     keyed MAC of its own uid is a probe; answer with a disguised
     reply. *)
  Netsim.Net.attach_app net ~node:dst (fun pkt ->
      if pkt.Netsim.Packet.flow = flow
         && Int64.equal (Netsim.Packet.payload pkt) (probe_tag key pkt.Netsim.Packet.uid)
      then begin
        let reply =
          Netsim.Packet.make ~sim ~src:dst ~dst:src ~flow ~size Netsim.Packet.Udp
        in
        Netsim.Packet.set_payload reply (reply_tag key pkt.Netsim.Packet.uid);
        Netsim.Net.originate net reply
      end);
  (* Prober side: match replies by their MACs. *)
  Netsim.Net.attach_app net ~node:src (fun pkt ->
      let payload = Netsim.Packet.payload pkt in
      if pkt.Netsim.Packet.flow = flow && Hashtbl.mem expected_replies payload then begin
        Hashtbl.remove expected_replies payload;
        t.answered <- t.answered + 1
      end);
  let rec tick () =
    if Netsim.Sim.now sim <= stop then begin
      let probe = Netsim.Packet.make ~sim ~src ~dst ~flow ~size Netsim.Packet.Udp in
      Netsim.Packet.set_payload probe (probe_tag key probe.Netsim.Packet.uid);
      Hashtbl.replace expected_replies (reply_tag key probe.Netsim.Packet.uid) ();
      t.sent <- t.sent + 1;
      Netsim.Net.originate net probe;
      Netsim.Sim.schedule sim ~delay:interval tick
    end
  in
  Netsim.Sim.schedule_at sim ~time:start tick;
  t

let sent t = t.sent
let answered t = t.answered

let loss_rate t =
  if t.sent = 0 then 0.0
  else float_of_int (t.sent - t.answered) /. float_of_int t.sent

let available t ~threshold = loss_rate t <= threshold

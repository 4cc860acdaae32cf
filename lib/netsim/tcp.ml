let header_bytes = 40
let ack_size = header_bytes
let initial_rto = 3.0
let min_rto = 0.2
let max_rto = 60.0

type t = {
  net : Net.t;
  sim : Sim.t;
  src : int;
  dst : int;
  flow : int;
  mss : int;
  total : int option;           (* payload bytes to send; None = unbounded *)
  start : float;
  stop : float option;
  (* sender state *)
  mutable established : bool;
  mutable connect_time : float option;
  mutable snd_una : int;
  mutable snd_nxt : int;
  mutable cwnd : float;
  mutable ssthresh : float;
  mutable dupacks : int;
  mutable in_recovery : bool;
  mutable recover : int;
  mutable srtt : float option;
  mutable rttvar : float;
  mutable rto : float;
  mutable rtt_probe : (int * float) option;  (* (seq, sent_at) being timed *)
  mutable timer_gen : int;                   (* cancels stale RTO events *)
  mutable timer_armed : bool;
  mutable retransmits : int;
  mutable timeouts : int;
  mutable syn_retries : int;
  mutable finish_time : float option;
  (* receiver state *)
  mutable rcv_nxt : int;
  ooo : (int, int) Hashtbl.t;                (* seq -> payload length *)
}

let flow_id t = t.flow
let established t = t.established
let connect_time t = t.connect_time
let bytes_acked t = t.snd_una
let retransmits t = t.retransmits
let timeouts t = t.timeouts
let syn_retries t = t.syn_retries

let finished t = match t.total with Some n -> t.snd_una >= n | None -> false
let finish_time t = t.finish_time

let goodput t ~at =
  let dt = at -. t.start in
  if dt <= 0.0 then 0.0 else float_of_int t.snd_una /. dt

let flight t = t.snd_nxt - t.snd_una

let mssf t = float_of_int t.mss

let send_segment t ~seq ~len =
  let pkt =
    Net.make_packet t.net ~src:t.src ~dst:t.dst ~flow:t.flow
      ~size:(len + header_bytes)
      (Packet.Tcp { seq; ack = -1; syn = false; fin = false })
  in
  Net.originate t.net pkt

let send_syn t =
  let pkt =
    Net.make_packet t.net ~src:t.src ~dst:t.dst ~flow:t.flow ~size:header_bytes
      (Packet.Tcp { seq = -1; ack = -1; syn = true; fin = false })
  in
  Net.originate t.net pkt

let send_synack t =
  let pkt =
    Net.make_packet t.net ~src:t.dst ~dst:t.src ~flow:t.flow ~size:header_bytes
      (Packet.Tcp { seq = -1; ack = 0; syn = true; fin = false })
  in
  Net.originate t.net pkt

let send_ack t =
  let pkt =
    Net.make_packet t.net ~src:t.dst ~dst:t.src ~flow:t.flow ~size:ack_size
      (Packet.Tcp { seq = -1; ack = t.rcv_nxt; syn = false; fin = false })
  in
  Net.originate t.net pkt

(* --- retransmission timer --- *)

let rec arm_timer t =
  t.timer_gen <- t.timer_gen + 1;
  t.timer_armed <- true;
  let gen = t.timer_gen in
  Sim.schedule t.sim ~delay:t.rto (fun () ->
      if t.timer_armed && gen = t.timer_gen && flight t > 0 then on_timeout t)

and disarm_timer t = t.timer_armed <- false

and on_timeout t =
  t.timeouts <- t.timeouts + 1;
  t.ssthresh <- Float.max (float_of_int (flight t) /. 2.0) (2.0 *. mssf t);
  t.cwnd <- mssf t;
  t.dupacks <- 0;
  t.in_recovery <- false;
  t.rtt_probe <- None;
  t.rto <- Float.min max_rto (t.rto *. 2.0);
  (* Go-back-N from the last cumulative ACK. *)
  t.snd_nxt <- t.snd_una;
  t.retransmits <- t.retransmits + 1;
  transmit_window t;
  arm_timer t

(* Offer new segments while the congestion window allows. *)
and transmit_window t =
  let past_stop = match t.stop with Some s -> Sim.now t.sim > s | None -> false in
  let continue = ref true in
  while !continue do
    let available =
      match t.total with Some n -> n - t.snd_nxt | None -> t.mss
    in
    let room = int_of_float t.cwnd - flight t in
    if past_stop || available <= 0 || room < min t.mss available then continue := false
    else begin
      let len = min t.mss available in
      send_segment t ~seq:t.snd_nxt ~len;
      (* Time one un-retransmitted segment per RTT (Karn's rule). *)
      if t.rtt_probe = None then t.rtt_probe <- Some (t.snd_nxt, Sim.now t.sim);
      t.snd_nxt <- t.snd_nxt + len;
      if not t.timer_armed then arm_timer t
    end
  done

let update_rtt t sample =
  (match t.srtt with
  | None ->
      t.srtt <- Some sample;
      t.rttvar <- sample /. 2.0
  | Some srtt ->
      t.rttvar <- (0.75 *. t.rttvar) +. (0.25 *. Float.abs (srtt -. sample));
      t.srtt <- Some ((0.875 *. srtt) +. (0.125 *. sample)));
  let srtt = Option.get t.srtt in
  t.rto <- Float.max min_rto (Float.min max_rto (srtt +. Float.max 0.01 (4.0 *. t.rttvar)))

let fast_retransmit t =
  t.ssthresh <- Float.max (float_of_int (flight t) /. 2.0) (2.0 *. mssf t);
  t.in_recovery <- true;
  t.recover <- t.snd_nxt;
  t.retransmits <- t.retransmits + 1;
  let len =
    match t.total with
    | Some n -> min t.mss (n - t.snd_una)
    | None -> t.mss
  in
  send_segment t ~seq:t.snd_una ~len;
  t.cwnd <- t.ssthresh +. (3.0 *. mssf t);
  arm_timer t

let on_ack t ack =
  if ack > t.snd_una then begin
    (* New data acknowledged. *)
    (match t.rtt_probe with
    | Some (seq, sent_at) when ack > seq ->
        update_rtt t (Sim.now t.sim -. sent_at);
        t.rtt_probe <- None
    | _ -> ());
    t.snd_una <- ack;
    t.dupacks <- 0;
    if t.finish_time = None && (match t.total with Some n -> ack >= n | None -> false) then
      t.finish_time <- Some (Sim.now t.sim);
    if t.in_recovery then begin
      if ack >= t.recover then begin
        t.in_recovery <- false;
        t.cwnd <- t.ssthresh
      end
      else begin
        (* Partial ACK: retransmit the next hole immediately (NewReno-ish
           simplification keeps recovery from stalling). *)
        t.retransmits <- t.retransmits + 1;
        let len =
          match t.total with Some n -> min t.mss (n - t.snd_una) | None -> t.mss
        in
        send_segment t ~seq:t.snd_una ~len
      end
    end
    else if t.cwnd < t.ssthresh then t.cwnd <- t.cwnd +. mssf t
    else t.cwnd <- t.cwnd +. (mssf t *. mssf t /. t.cwnd);
    if flight t = 0 then disarm_timer t else arm_timer t;
    transmit_window t
  end
  else if ack = t.snd_una && flight t > 0 then begin
    t.dupacks <- t.dupacks + 1;
    if t.dupacks = 3 && not t.in_recovery then fast_retransmit t
    else if t.in_recovery then begin
      (* Window inflation while dup ACKs keep arriving. *)
      t.cwnd <- t.cwnd +. mssf t;
      transmit_window t
    end
  end

let on_receiver_data t hdr (pkt : Packet.t) =
  let len = pkt.Packet.size - header_bytes in
  let seq = hdr.Packet.seq in
  if len > 0 then begin
    if seq = t.rcv_nxt then begin
      t.rcv_nxt <- t.rcv_nxt + len;
      (* Drain any buffered contiguous segments. *)
      let continue = ref true in
      while !continue do
        match Hashtbl.find_opt t.ooo t.rcv_nxt with
        | Some l ->
            Hashtbl.remove t.ooo t.rcv_nxt;
            t.rcv_nxt <- t.rcv_nxt + l
        | None -> continue := false
      done
    end
    else if seq > t.rcv_nxt then Hashtbl.replace t.ooo seq len
  end;
  send_ack t

let rec syn_timer t attempt =
  let delay = Float.min max_rto (initial_rto *. float_of_int (1 lsl attempt)) in
  Sim.schedule t.sim ~delay (fun () ->
      if not t.established then begin
        t.syn_retries <- t.syn_retries + 1;
        send_syn t;
        syn_timer t (attempt + 1)
      end)

let connect net ~src ~dst ?(mss = 960) ?total_bytes ?(start = 0.0) ?stop () =
  if mss <= 0 then invalid_arg "Tcp.connect: mss must be positive";
  let sim = Net.sim net in
  let t =
    { net; sim; src; dst; flow = Sim.fresh_id sim; mss; total = total_bytes; start; stop;
      established = false; connect_time = None; snd_una = 0; snd_nxt = 0;
      cwnd = float_of_int mss; ssthresh = 65535.0; dupacks = 0; in_recovery = false;
      recover = 0; srtt = None; rttvar = 0.0; rto = initial_rto; rtt_probe = None;
      timer_gen = 0; timer_armed = false; retransmits = 0; timeouts = 0; syn_retries = 0;
      finish_time = None; rcv_nxt = 0; ooo = Hashtbl.create 16 }
  in
  (* Receiver side app. *)
  Net.attach_app net ~node:dst (fun pkt ->
      if pkt.Packet.flow = t.flow then begin
        match pkt.Packet.proto with
        | Packet.Tcp hdr when hdr.Packet.syn -> send_synack t
        | Packet.Tcp hdr when hdr.Packet.seq >= 0 -> on_receiver_data t hdr pkt
        | Packet.Tcp _ | Packet.Udp | Packet.Ping _ | Packet.Pong _ -> ()
      end);
  (* Sender side app. *)
  Net.attach_app net ~node:src (fun pkt ->
      if pkt.Packet.flow = t.flow then begin
        match pkt.Packet.proto with
        | Packet.Tcp hdr when hdr.Packet.syn && hdr.Packet.ack = 0 ->
            if not t.established then begin
              t.established <- true;
              t.connect_time <- Some (Sim.now t.sim);
              transmit_window t
            end
        | Packet.Tcp hdr when hdr.Packet.ack >= 0 && t.established -> on_ack t hdr.Packet.ack
        | Packet.Tcp _ | Packet.Udp | Packet.Ping _ | Packet.Pong _ -> ()
      end);
  Sim.schedule_at sim ~time:start (fun () ->
      send_syn t;
      syn_timer t 0);
  t

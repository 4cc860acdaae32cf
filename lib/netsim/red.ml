type params = {
  limit_bytes : int;
  min_th : float;
  max_th : float;
  max_p : float;
  wq : float;
  mean_pkt_size : int;
  gentle : bool;
}

let default_params =
  { limit_bytes = 64000; min_th = 30000.0; max_th = 60000.0; max_p = 0.1; wq = 0.002;
    mean_pkt_size = 1000; gentle = false }

(* RED's replayable state, float-only so updating it boxes nothing. *)
type state = {
  mutable avg : float;
  mutable idle_since : float;
  mutable drop_p : float;
}

type t = {
  p : params;
  q : Pktring.t;
  rng : Random.State.t;
  mutable bytes : int;
  st : state;
  mutable count : int;      (* packets since last drop; -1 = below min_th *)
  mutable idle : bool;      (* [st.idle_since] holds when the queue emptied *)
}

let validate p =
  if p.limit_bytes <= 0 then invalid_arg "Red.create: limit must be positive";
  if not (0.0 <= p.min_th && p.min_th < p.max_th) then
    invalid_arg "Red.create: need 0 <= min_th < max_th";
  if not (0.0 < p.max_p && p.max_p <= 1.0) then invalid_arg "Red.create: max_p in (0,1]";
  if not (0.0 < p.wq && p.wq <= 1.0) then invalid_arg "Red.create: wq in (0,1]"

let create ?(params = default_params) ~rng () =
  validate params;
  { p = params; q = Pktring.create (); rng; bytes = 0;
    st = { avg = 0.0; idle_since = 0.0; drop_p = 0.0 }; count = -1; idle = true }

let params t = t.p
let occupancy t = t.bytes
let avg t = t.st.avg
let is_empty t = Pktring.is_empty t.q
let length t = Pktring.length t.q

(* The replay functions read and write the state in place and call no
   other function with a float: across a module boundary (or into a
   helper that is not inlined) every float would be boxed. *)
let decay_avg p st ~(now : Sim.fbox) ~link_bw =
  (* The queue was empty since [idle_since]: pretend m small packets
     departed and apply the EWMA m times. *)
  let idle = now.f -. st.idle_since in
  if idle > 0.0 then begin
    let s = float_of_int p.mean_pkt_size /. link_bw in
    let m = idle /. s in
    st.avg <- st.avg *. ((1.0 -. p.wq) ** m)
  end

let update_avg p st ~occupancy =
  st.avg <- ((1.0 -. p.wq) *. st.avg) +. (p.wq *. float_of_int occupancy)

let early_drop_probability p st ~count =
  let avg = st.avg in
  let pb =
    if avg < p.min_th then 0.0
    else if avg < p.max_th then p.max_p *. (avg -. p.min_th) /. (p.max_th -. p.min_th)
    else if p.gentle && avg < 2.0 *. p.max_th then
      (* Gentle ramp: max_p at max_th up to 1 at 2*max_th. *)
      p.max_p +. ((1.0 -. p.max_p) *. (avg -. p.max_th) /. p.max_th)
    else 1.0
  in
  st.drop_p <-
    (if pb <= 0.0 then 0.0
     else if pb >= 1.0 then 1.0
     else begin
       let denom = 1.0 -. (float_of_int (max 0 count) *. pb) in
       if denom <= 0.0 then 1.0
       else
         let pa = pb /. denom in
         if pa < 1.0 then pa else 1.0
     end)

type verdict = [ `Enqueued | `Early_drop | `Forced_drop ]

let enqueue t ~clock ~link_bw pkt =
  (* EWMA update, including idle decay if the queue was empty. *)
  if t.idle && Pktring.is_empty t.q then begin
    decay_avg t.p t.st ~now:clock ~link_bw;
    t.idle <- false
  end;
  update_avg t.p t.st ~occupancy:t.bytes;
  let decide () =
    (* With no packets counted, the drop probability is the base one,
       clipped to [0, 1]. *)
    early_drop_probability t.p t.st ~count:0;
    let pb = t.st.drop_p in
    if pb <= 0.0 then begin
      t.count <- -1;
      `Admit
    end
    else if pb >= 1.0 then begin
      t.count <- 0;
      `Drop
    end
    else begin
      t.count <- t.count + 1;
      early_drop_probability t.p t.st ~count:t.count;
      if Random.State.float t.rng 1.0 < t.st.drop_p then begin
        t.count <- 0;
        `Drop
      end
      else `Admit
    end
  in
  match decide () with
  | `Drop -> `Early_drop
  | `Admit ->
      if t.bytes + pkt.Packet.size > t.p.limit_bytes then begin
        t.count <- 0;
        `Forced_drop
      end
      else begin
        Pktring.push t.q pkt;
        t.bytes <- t.bytes + pkt.Packet.size;
        `Enqueued
      end

(* pre: not empty *)
let dequeue_exn t ~(clock : Sim.fbox) =
  let p = Pktring.pop_exn t.q in
  t.bytes <- t.bytes - p.Packet.size;
  if Pktring.is_empty t.q then begin
    t.idle <- true;
    t.st.idle_since <- clock.f
  end;
  p

let dequeue t ~clock =
  if Pktring.is_empty t.q then None else Some (dequeue_exn t ~clock)

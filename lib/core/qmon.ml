type entry = { fp : int64; size : int; flow : int; time : float }

(* Growable struct-of-arrays entries: a fingerprint is 8 bytes of [fps]
   (native-endian int64), the other fields one array slot each, so
   storing, moving or reading an entry allocates nothing once the arrays
   have grown.  The arrays are grown on the first push. *)
type buf = {
  mutable fps : Bytes.t;
  mutable sizes : int array;
  mutable flows : int array;
  mutable times : float array;
  mutable occs : int array;  (* calibration sample, [no_sample] if none *)
  mutable len : int;
}

let no_sample = min_int

let buf () =
  { fps = Bytes.empty; sizes = [||]; flows = [||]; times = [||]; occs = [||]; len = 0 }

let grow b =
  let cap = max 64 (2 * Array.length b.sizes) in
  let fps = Bytes.create (8 * cap) in
  Bytes.blit b.fps 0 fps 0 (8 * b.len);
  let extend a fill =
    let a' = Array.make cap fill in
    Array.blit a 0 a' 0 b.len;
    a'
  in
  b.fps <- fps;
  b.sizes <- extend b.sizes 0;
  b.flows <- extend b.flows 0;
  b.times <- extend b.times 0.0;
  b.occs <- extend b.occs no_sample

(* The next slot, filled with all but its fingerprint.  The time comes
   in a flat box (the view's clock) and is stored straight into the
   float array: a float argument would box. *)
let claim b ~size ~flow ~(at : Netsim.Sim.fbox) =
  if b.len = Array.length b.sizes then grow b;
  let i = b.len in
  b.sizes.(i) <- size;
  b.flows.(i) <- flow;
  b.times.(i) <- at.f;
  b.occs.(i) <- no_sample;
  b.len <- i + 1;
  i

(* The packet is fingerprinted straight into its slot of [fps]: an
   int64 result would box. *)
let push b ~key pkt ~at =
  let i = claim b ~size:pkt.Netsim.Packet.size ~flow:pkt.Netsim.Packet.flow ~at in
  Netsim.Packet.fingerprint_into key pkt b.fps (8 * i)

(* Store entry [i] of [src] in slot [j] of [dst]. *)
let set_slot dst j src i =
  Bytes.set_int64_ne dst.fps (8 * j) (Bytes.get_int64_ne src.fps (8 * i));
  dst.sizes.(j) <- src.sizes.(i);
  dst.flows.(j) <- src.flows.(i);
  dst.times.(j) <- src.times.(i);
  dst.occs.(j) <- src.occs.(i)

let append dst src i =
  if dst.len = Array.length dst.sizes then grow dst;
  set_slot dst dst.len src i;
  dst.len <- dst.len + 1

let fp_at b i = Bytes.get_int64_ne b.fps (8 * i)

let compare_at b i j =
  let c = Float.compare b.times.(i) b.times.(j) in
  if c <> 0 then c else Int64.compare (fp_at b i) (fp_at b j)

(* Reports arrive in event order.  That is not (time, fp) order: an
   arrival is reported after the receiving router's processing jitter,
   stamped with the time the neighbour saw, so reports from different
   in-links interleave out of order by up to the jitter bound; a clock
   skew shifts some reporter's timestamps; two entries can share an
   instant.  An insertion sort in place, with slot [len] holding the
   entry being placed, is stable, allocates nothing once the buffer has
   grown, and costs O(n + inversions) on such nearly sorted reports. *)
let sort_by_time_fp b =
  for i = 1 to b.len - 1 do
    if compare_at b (i - 1) i > 0 then begin
      if b.len = Array.length b.sizes then grow b;
      let spare = b.len in
      set_slot b spare b i;
      let j = ref i in
      while !j > 0 && compare_at b (!j - 1) spare > 0 do
        set_slot b !j b (!j - 1);
        decr j
      done;
      set_slot b !j b spare
    end
  done

(* Open-addressed fingerprint set with linear probing.  A slot holds a
   member iff its mark equals [gen], so clearing is one increment and
   the table is reused from round to round.  Keys are read from and
   compared against a buffer's bytes, never boxed. *)
type fpset = {
  mutable keys : Bytes.t;
  mutable marks : int array;
  mutable gen : int;
  mutable count : int;
}

let fpset () = { keys = Bytes.empty; marks = [||]; gen = 1; count = 0 }

let clear s =
  s.gen <- s.gen + 1;
  s.count <- 0

(* The slot holding the fingerprint at byte [off] of [b], or the free
   slot where it belongs.  Pre: the table has a free slot. *)
let find s b off =
  let k = Bytes.get_int64_ne b off in
  let mask = Array.length s.marks - 1 in
  let h = Int64.to_int k in
  let h = (h lxor (h lsr 29)) * 0xBF58476D1CE4E5B in
  let i = ref ((h lxor (h lsr 32)) land mask) in
  while s.marks.(!i) = s.gen && Bytes.get_int64_ne s.keys (8 * !i) <> k do
    i := (!i + 1) land mask
  done;
  !i

let mem s b off = s.count > 0 && s.marks.(find s b off) = s.gen

let rec add s b off =
  if 2 * (s.count + 1) > Array.length s.marks then resize s;
  let i = find s b off in
  if s.marks.(i) <> s.gen then begin
    s.marks.(i) <- s.gen;
    Bytes.set_int64_ne s.keys (8 * i) (Bytes.get_int64_ne b off);
    s.count <- s.count + 1
  end

and resize s =
  let keys = s.keys and marks = s.marks and gen = s.gen in
  let cap = max 64 (2 * Array.length marks) in
  s.keys <- Bytes.create (8 * cap);
  s.marks <- Array.make cap 0;
  s.gen <- 1;
  s.count <- 0;
  Array.iteri (fun i m -> if m = gen then add s keys (8 * i)) marks

let add_all s b =
  for i = 0 to b.len - 1 do
    add s b.fps (8 * i)
  done

type view = { b : buf; n : int }

let length v = v.n
let fp v i = fp_at v.b i
let size v i = v.b.sizes.(i)
let flow v i = v.b.flows.(i)
let time v i = v.b.times.(i)

let occupancy v i =
  let o = v.b.occs.(i) in
  if o = no_sample then None else Some o

type t = {
  router : int;
  next : int;
  mutable predict : Netsim.Packet.t -> int;
  pending_s : buf;  (* announced arrivals, in report order *)
  pending_d : buf;  (* departures, in time order *)
  round_s : buf;    (* the last drain's arrivals *)
  round_d : buf;    (* the last drain's departures *)
  carried : buf;    (* departures past the last replay's horizon *)
  fps : fpset;      (* scratch membership, cleared per use *)
  (* Arrivals the monitored interface itself discarded because the link
     was down: the failure is locally observable (the neighbours see the
     link-state flood), so these are excused, never "unexplainable". *)
  benign_fps : (int64, unit) Hashtbl.t;
  occ_samples : (int64, int) Hashtbl.t;    (* calibration *)
  mutable calibrating : bool;
  skewed : Netsim.Sim.fbox;  (* scratch: a skewed reporter's timestamp *)
  replayed : Netsim.Sim.fbox;  (* the time of the entry being replayed *)
}

let router t = t.router
let next t = t.next
let replay_clock t = t.replayed
let set_predict t p = t.predict <- p
let set_calibrating t v = t.calibrating <- v

let predict_of_routing rt ~router pkt =
  if pkt.Netsim.Packet.dst = router then -1
  else Topology.Routing.next_hop_id rt router ~dst:pkt.Netsim.Packet.dst

let predict_of_ecmp ecmp ~router pkt =
  if pkt.Netsim.Packet.dst = router then -1
  else
    Topology.Ecmp.next_hop_id ecmp router ~dst:pkt.Netsim.Packet.dst
      ~flow:pkt.Netsim.Packet.flow

(* The monitor listens to Q's own link ⟨r, rd⟩ and to r's in-links,
   nothing else: the rest of the network stays unobserved. *)
let attach ~net ~predict ~key ?skew ~router ~next () =
  let iface =
    match Netsim.Net.iface net ~src:router ~dst:next with
    | Some i -> i
    | None -> invalid_arg "Qmon.attach: no such link"
  in
  let t =
    { router; next; predict; pending_s = buf (); pending_d = buf (); round_s = buf ();
      round_d = buf (); carried = buf (); fps = fpset ();
      benign_fps = Hashtbl.create 16;
      occ_samples = Hashtbl.create 64; calibrating = false;
      skewed = { f = 0.0 }; replayed = { f = 0.0 } }
  in
  let on_in_link (ev : Netsim.Net.iface_event) =
    let pkt = ev.pkt in
    match ev.kind with
    | Netsim.Iface.Delivered when pkt.Netsim.Packet.dst <> router ->
        (* An upstream neighbour watched this packet reach r; it enters
           Q iff r's (predictable) forwarding decision for it is
           [next]. *)
        if t.predict pkt = next then begin
          let at =
            match skew with
            | None -> ev.clock
            | Some skew ->
                t.skewed.f <- ev.clock.f +. skew ~reporter:ev.router;
                t.skewed
          in
          push t.pending_s ~key pkt ~at
        end
    | _ -> ()
  in
  let on_queue (ev : Netsim.Net.iface_event) =
    let pkt = ev.pkt in
    match ev.kind with
    | Netsim.Iface.Transmit_start ->
        (* rd infers the dequeue instant from its own arrival time. *)
        push t.pending_d ~key pkt ~at:ev.clock
    | Netsim.Iface.Enqueued when pkt.Netsim.Packet.src = router ->
        (* Traffic the monitored router originates also occupies Q; the
           router announces it itself and is trusted for its own
           traffic (§2.1.4 fate sharing), so these entries keep the
           replayed occupancy honest. *)
        push t.pending_s ~key pkt ~at:ev.clock
    | Netsim.Iface.Drop_link_down ->
        Hashtbl.replace t.benign_fps (Netsim.Packet.fingerprint key pkt) ()
    | Netsim.Iface.Enqueued when t.calibrating ->
        Hashtbl.replace t.occ_samples
          (Netsim.Packet.fingerprint key pkt)
          (Netsim.Iface.occupancy iface - pkt.Netsim.Packet.size)
    | _ -> ()
  in
  Netsim.Net.subscribe_link net
    ~kinds:Netsim.Iface.(kinds [ Transmit_start; Enqueued; Drop_link_down ])
    ~src:router ~dst:next on_queue;
  for u = 0 to Topology.Graph.size (Netsim.Net.graph net) - 1 do
    if Netsim.Net.iface net ~src:u ~dst:router <> None then
      Netsim.Net.subscribe_link net ~kinds:Netsim.Iface.(kinds [ Delivered ]) ~src:u
        ~dst:router on_in_link
  done;
  t

type round_data = { arrivals : view; departures : view; fabricated : int }

let drain t ~horizon =
  let ps = t.pending_s and rs = t.round_s in
  (* Split the pending arrivals at the horizon, compacting the later ones
     in place.  Announced arrivals the monitored interface discarded
     while its link was down never entered Q: excuse them. *)
  rs.len <- 0;
  let keep = ref 0 and benign = ref [] in
  let any_benign = Hashtbl.length t.benign_fps > 0 in
  for i = 0 to ps.len - 1 do
    if ps.times.(i) <= horizon then begin
      if any_benign && Hashtbl.mem t.benign_fps (fp_at ps i) then
        benign := fp_at ps i :: !benign
      else append rs ps i
    end
    else begin
      set_slot ps !keep ps i;
      incr keep
    end
  done;
  ps.len <- !keep;
  List.iter (fun fp -> Hashtbl.remove t.benign_fps fp) !benign;
  if Hashtbl.length t.occ_samples > 0 then begin
    for i = 0 to rs.len - 1 do
      let fp = fp_at rs i in
      match Hashtbl.find_opt t.occ_samples fp with
      | Some occ ->
          Hashtbl.remove t.occ_samples fp;
          rs.occs.(i) <- occ
      | None -> ()
    done;
    if not t.calibrating then Hashtbl.reset t.occ_samples
  end;
  sort_by_time_fp rs;
  (* Every departure of a drained arrival belongs to this round. *)
  let pd = t.pending_d and rd = t.round_d in
  rd.len <- 0;
  clear t.fps;
  add_all t.fps rs;
  let keep = ref 0 in
  for j = 0 to pd.len - 1 do
    if mem t.fps pd.fps (8 * j) then append rd pd j
    else begin
      set_slot pd !keep pd j;
      incr keep
    end
  done;
  pd.len <- !keep;
  (* A departure at or before the horizon whose fingerprint is not among
     the arrivals still pending was never announced by any upstream
     neighbour: the router fabricated it. *)
  let fabricated = ref 0 in
  if pd.len > 0 then begin
    clear t.fps;
    add_all t.fps ps;
    let keep = ref 0 in
    for j = 0 to pd.len - 1 do
      if pd.times.(j) <= horizon && not (mem t.fps pd.fps (8 * j)) then incr fabricated
      else begin
        set_slot pd !keep pd j;
        incr keep
      end
    done;
    pd.len <- !keep
  end;
  sort_by_time_fp rd;
  { arrivals = { b = rs; n = rs.len }; departures = { b = rd; n = rd.len };
    fabricated = !fabricated }

(* A two-pointer merge of the arrivals with the departures, whose two
   sources (carried and this round's) merge the same way. *)
let replay t data ~horizon ~arrive ~depart =
  let av = data.arrivals and dv = data.departures in
  let a = av.b and na = av.n and d = dv.b and nd = dv.n in
  let c = t.carried in
  let cv = { b = c; n = c.len } in
  let nc = cv.n in
  clear t.fps;
  for k = 0 to nd - 1 do
    add t.fps d.fps (8 * k)
  done;
  (* Departures are in time order, so those replaying now are a prefix;
     the rest belong to the next replay, so the replayed queue carries
     its backlog across round boundaries. *)
  let nk = ref 0 in
  while !nk < nd && d.times.(!nk) <= horizon do
    incr nk
  done;
  let nk = !nk in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !i < na || !j < nc || !k < nk do
    let from_carried =
      !j < nc && (!k >= nk || Float.compare c.times.(!j) d.times.(!k) <= 0)
    in
    let dep_time =
      if from_carried then c.times.(!j) else if !k < nk then d.times.(!k) else infinity
    in
    if !i < na && Float.compare a.times.(!i) dep_time <= 0 then begin
      t.replayed.f <- a.times.(!i);
      arrive av !i ~admitted:(mem t.fps a.fps (8 * !i));
      incr i
    end
    else if from_carried then begin
      t.replayed.f <- dep_time;
      depart cv !j;
      incr j
    end
    else begin
      t.replayed.f <- dep_time;
      depart dv !k;
      incr k
    end
  done;
  c.len <- 0;
  for k = nk to nd - 1 do
    append c d k
  done

let round_of_entries ~arrivals ~departures =
  let of_entries es =
    let b = buf () in
    List.iter
      (fun e ->
        let i = claim b ~size:e.size ~flow:e.flow ~at:{ f = e.time } in
        Bytes.set_int64_ne b.fps (8 * i) e.fp)
      es;
    { b; n = b.len }
  in
  { arrivals = of_entries arrivals; departures = of_entries departures; fabricated = 0 }

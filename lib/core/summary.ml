type policy = Flow | Content | Order | Timeliness

(* The fingerprint set is a chained hash table laid out flat: slot [s]
   holds a fingerprint in bytes [8s, 8s + 8) of [keys] (native-endian),
   its [Hashtbl.hash] in [hashes.(s)] and the next slot of its chain in
   [next.(s)] ([-1] ends a chain); [heads.(b)] is bucket [b]'s first
   slot.  Storing, finding or comparing a fingerprint allocates nothing
   once the arrays have grown, and [clear] keeps them.

   The table replays the stdlib [Hashtbl]'s order exactly, because Byz's
   pruning picks fingerprints by position in [fingerprints]: [buckets]
   starts at 64 and doubles when [size] exceeds twice it, a new entry
   goes at the head of its chain, a resize splits each chain into its
   two successors keeping the order, and [fingerprints] folds the
   buckets in ascending order consing each chain from its head.  A
   removed slot stays a hole until [clear] or [copy]. *)
type t = {
  policy : policy;
  mutable packets : int;
  mutable bytes : int;
  mutable size : int;  (* distinct fingerprints held *)
  mutable used : int;  (* slots handed out, holes included *)
  mutable buckets : int;
  mutable heads : int array;  (* at least [buckets] long *)
  mutable keys : Bytes.t;
  mutable hashes : int array;
  mutable next : int array;
  mutable times : Float.Array.t;  (* Timeliness: the slot's last time *)
  mutable seq : Bytes.t;  (* Order and richer: every fingerprint, in order *)
  mutable seq_len : int;
}

let initial_buckets = 64

let keeps_identity t = t.policy <> Flow
let keeps_order t = match t.policy with Order | Timeliness -> true | Flow | Content -> false

let create policy =
  { policy; packets = 0; bytes = 0; size = 0; used = 0; buckets = initial_buckets;
    heads = (if policy = Flow then [||] else Array.make initial_buckets (-1));
    keys = Bytes.empty; hashes = [||]; next = [||]; times = Float.Array.create 0;
    seq = Bytes.empty; seq_len = 0 }

let policy t = t.policy

let clear t =
  t.packets <- 0;
  t.bytes <- 0;
  t.size <- 0;
  t.used <- 0;
  t.seq_len <- 0;
  if keeps_identity t then begin
    t.buckets <- initial_buckets;
    Array.fill t.heads 0 initial_buckets (-1)
  end

let key t s = Bytes.get_int64_ne t.keys (8 * s)

(* [Hashtbl.hash] of an int64, bit for bit, with the argument unboxed:
   the stdlib hashes the custom block's [lo lxor hi] word with
   MurmurHash3's [mix_uint32] from seed 0, then [FINAL_MIX], keeping 30
   bits.  Inlined where it is used, so a fingerprint read from bytes is
   never boxed on its way in. *)
let m32 = 0xFFFF_FFFF
let[@inline] rotl32 x n = ((x lsl n) lor (x lsr (32 - n))) land m32

let[@inline] hash_fp (x : int64) =
  let d = (Int64.to_int x lxor Int64.to_int (Int64.shift_right_logical x 32)) land m32 in
  let d = (d * 0xcc9e2d51) land m32 in
  let d = (rotl32 d 15 * 0x1b873593) land m32 in
  let h = rotl32 d 13 in
  let h = ((h * 5) + 0xe6546b64) land m32 in
  let h = h lxor (h lsr 16) in
  let h = (h * 0x85ebca6b) land m32 in
  let h = h lxor (h lsr 13) in
  let h = (h * 0xc2b2ae35) land m32 in
  (h lxor (h lsr 16)) land 0x3FFF_FFFF

(* The slot holding [fp] in the chain from [s], or [-1]. *)
let rec find_boxed t s h (fp : int64) =
  if s < 0 || (t.hashes.(s) = h && key t s = fp) then s
  else find_boxed t t.next.(s) h fp

(* The slot holding the fingerprint at byte [off] of [src] in the chain
   from [s], or [-1]: it is compared in place, never boxed. *)
let rec find_at t s h src off =
  if s < 0 || (t.hashes.(s) = h && key t s = Bytes.get_int64_ne src off) then s
  else find_at t t.next.(s) h src off

let bucket t h = h land (t.buckets - 1)

let grow_slots t =
  let cap = max 16 (2 * Array.length t.hashes) in
  let keys = Bytes.create (8 * cap) in
  Bytes.blit t.keys 0 keys 0 (8 * t.used);
  let extend a =
    let a' = Array.make cap 0 in
    Array.blit a 0 a' 0 t.used;
    a'
  in
  t.keys <- keys;
  t.hashes <- extend t.hashes;
  t.next <- extend t.next;
  if t.policy = Timeliness then begin
    let times = Float.Array.create cap in
    Float.Array.blit t.times 0 times 0 t.used;
    t.times <- times
  end

(* Move the chain from [s] into buckets [b] and [b + half], keeping its
   order: [lo] and [hi] are the last slots placed in each, or [-1]. *)
let rec split t b half s lo hi =
  if s < 0 then begin
    if lo >= 0 then t.next.(lo) <- -1;
    if hi >= 0 then t.next.(hi) <- -1
  end
  else begin
    let rest = t.next.(s) in
    if t.hashes.(s) land half = 0 then begin
      if lo < 0 then t.heads.(b) <- s else t.next.(lo) <- s;
      split t b half rest s hi
    end
    else begin
      if hi < 0 then t.heads.(b + half) <- s else t.next.(hi) <- s;
      split t b half rest lo s
    end
  end

let resize t =
  let half = t.buckets in
  if Array.length t.heads < 2 * half then begin
    let heads = Array.make (2 * half) (-1) in
    Array.blit t.heads 0 heads 0 half;
    t.heads <- heads
  end;
  t.buckets <- 2 * half;
  for b = 0 to half - 1 do
    let s = t.heads.(b) in
    t.heads.(b) <- -1;
    t.heads.(b + half) <- -1;
    split t b half s (-1) (-1)
  done

(* Store the fingerprint at byte [off] of [src] in a new slot. *)
let add t h src off =
  if t.used = Array.length t.hashes then grow_slots t;
  let s = t.used in
  t.used <- s + 1;
  Bytes.set_int64_ne t.keys (8 * s) (Bytes.get_int64_ne src off);
  t.hashes.(s) <- h;
  let b = bucket t h in
  t.next.(s) <- t.heads.(b);
  t.heads.(b) <- s;
  t.size <- t.size + 1;
  if t.size > 2 * t.buckets then resize t;
  s

let push_seq t src off =
  if 8 * t.seq_len = Bytes.length t.seq then begin
    let seq = Bytes.create (max 128 (2 * Bytes.length t.seq)) in
    Bytes.blit t.seq 0 seq 0 (8 * t.seq_len);
    t.seq <- seq
  end;
  Bytes.blit src off t.seq (8 * t.seq_len) 8;
  t.seq_len <- t.seq_len + 1

(* The one insertion path: count the packet and file the fingerprint at
   byte [off] of [src], hashed and compared where it lies.  The slot it
   landed in, or [-1] under [Flow]. *)
let insert t src off ~size =
  t.packets <- t.packets + 1;
  t.bytes <- t.bytes + size;
  if keeps_identity t then begin
    let h = hash_fp (Bytes.get_int64_ne src off) in
    let s = find_at t t.heads.(bucket t h) h src off in
    let s = if s >= 0 then s else add t h src off in
    if keeps_order t then push_seq t src off;
    s
  end
  else -1

let observe_at t src off ~size ~(clock : Netsim.Sim.fbox) =
  let s = insert t src off ~size in
  if t.policy = Timeliness then Float.Array.set t.times s clock.f

(* The fingerprint is staged in the first free key slot, which [add]
   claims if it is new. *)
let observe t ~fp ~size ~time =
  if keeps_identity t then begin
    if t.used = Array.length t.hashes then grow_slots t;
    Bytes.set_int64_ne t.keys (8 * t.used) fp
  end;
  let s = insert t t.keys (8 * t.used) ~size in
  if t.policy = Timeliness then Float.Array.set t.times s time

let packets t = t.packets
let bytes t = t.bytes
let cardinal t = t.size

let slot_of t fp =
  if t.size = 0 then -1
  else
    let h = hash_fp fp in
    find_boxed t t.heads.(bucket t h) h fp

let mem t fp = slot_of t fp >= 0

(* [f b s] on every slot [s] of bucket [b], buckets ascending and each
   chain from its head: the stdlib [Hashtbl.fold] order. *)
let iter_slots t f =
  if t.size > 0 then
    for b = 0 to t.buckets - 1 do
      let s = ref t.heads.(b) in
      while !s >= 0 do
        f b !s;
        s := t.next.(!s)
      done
    done

let fingerprints t =
  let acc = ref [] in
  iter_slots t (fun _ s -> acc := key t s :: !acc);
  !acc

let nth t i =
  if i < 0 || i >= t.size then invalid_arg "Summary.nth";
  (* [fingerprints] conses in traversal order, so its [i]th element is
     the traversal's [size - 1 - i]th. *)
  let left = ref (t.size - 1 - i) and found = ref (-1) in
  iter_slots t (fun _ s ->
      if !left = 0 then found := s;
      decr left);
  key t !found

(* Whether [t] holds the fingerprint at slot [s] of [src]. *)
let mem_slot t src s =
  t.size > 0
  && begin
       let h = src.hashes.(s) in
       find_at t t.heads.(bucket t h) h src.keys (8 * s) >= 0
     end

let diff ?exclude a b =
  let acc = ref [] in
  iter_slots a (fun _ s ->
      if not (mem_slot b a s || match exclude with Some e -> mem_slot e a s | None -> false)
      then acc := key a s :: !acc);
  !acc

let sequence t =
  if not (keeps_order t) then
    invalid_arg "Summary.sequence: policy keeps no ordering";
  Array.init t.seq_len (fun i -> Bytes.get_int64_ne t.seq (8 * i))

let time_of t fp =
  if t.policy <> Timeliness then None
  else
    let s = slot_of t fp in
    if s < 0 then None else Some (Float.Array.get t.times s)

let state_words t =
  match t.policy with
  | Flow -> 2
  | Content -> 2 + t.size
  | Order -> 2 + t.seq_len
  | Timeliness -> 2 + (2 * t.seq_len)

let copy t =
  let n = t.size in
  let c =
    { t with keys = Bytes.create (8 * n); hashes = Array.make n 0; next = Array.make n (-1);
      heads = (if keeps_identity t then Array.make t.buckets (-1) else [||]);
      times = Float.Array.create (if t.policy = Timeliness then n else 0);
      seq = Bytes.sub t.seq 0 (8 * t.seq_len); used = n }
  in
  (* Slots are renumbered densely in traversal order, so a chain's slots
     are consecutive and each links to the one after it. *)
  let j = ref 0 in
  iter_slots t (fun b s ->
      Bytes.set_int64_ne c.keys (8 * !j) (key t s);
      c.hashes.(!j) <- t.hashes.(s);
      if t.policy = Timeliness then Float.Array.set c.times !j (Float.Array.get t.times s);
      if c.heads.(b) < 0 then c.heads.(b) <- !j else c.next.(!j - 1) <- !j;
      incr j);
  c

let remove t fp =
  let s = slot_of t fp in
  if s >= 0 then begin
    let b = bucket t t.hashes.(s) in
    (if t.heads.(b) = s then t.heads.(b) <- t.next.(s)
     else begin
       let p = ref t.heads.(b) in
       while t.next.(!p) <> s do
         p := t.next.(!p)
       done;
       t.next.(!p) <- t.next.(s)
     end);
    t.size <- t.size - 1;
    t.packets <- t.packets - 1;
    if keeps_order t then begin
      let kept = ref 0 in
      for i = 0 to t.seq_len - 1 do
        let f = Bytes.get_int64_ne t.seq (8 * i) in
        if f <> fp then begin
          Bytes.set_int64_ne t.seq (8 * !kept) f;
          incr kept
        end
      done;
      t.seq_len <- !kept
    end
  end

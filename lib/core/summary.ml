type policy = Flow | Content | Order | Timeliness

(* The fingerprint set is insertion-ordered slot arrays behind an
   open-addressed index.  Slot [s] holds a fingerprint in bytes
   [8s, 8s + 8) of [keys] (native-endian) and its [hash_fp] in 4 bytes
   of [hashes]; a removed slot is a hole,
   marked in [dead] (empty until the first [remove]), until [clear] or
   [copy].  The index is a linear-probing table of 4-byte cells, kept at
   most half full: a cell holds [s + 1] in its low 24 bits and the top 8
   bits of the fingerprint's hash above them, or 0 when free, so a probe
   reads a key only when the tag matches.  Storing, finding or comparing
   a fingerprint allocates nothing once the arrays have grown, and
   [clear] keeps them.  A summary holds at most 2^24 - 1 slots.

   Byz's pruning picks fingerprints by position in [fingerprints], which
   lists them as the stdlib [Hashtbl] (unseeded, 64 initial buckets)
   would.  That order needs no chains: [buckets] replays the stdlib
   table's bucket count (64, doubled whenever [size] exceeds twice it),
   the stdlib lists its buckets descending, and within a bucket the
   entries it holds oldest first (a new entry goes at the head of its
   chain, a resize keeps each chain's order, and the fold conses).  The
   slots are oldest first already, so the order is derived only when
   something reads it ([ordered], [diff]). *)
type t = {
  policy : policy;
  mutable packets : int;
  mutable bytes : int;
  mutable size : int;  (* distinct fingerprints held *)
  mutable used : int;  (* slots handed out, holes included *)
  mutable buckets : int;
  mutable index : Bytes.t;  (* a power of two of cells, or empty *)
  mutable keys : Bytes.t;
  mutable hashes : Bytes.t;
  mutable dead : Bytes.t;  (* one byte per slot, nonzero for a hole *)
  mutable times : Float.Array.t;  (* Timeliness: the slot's last time *)
  mutable seq : Bytes.t;  (* Order and richer: every fingerprint, in order *)
  mutable seq_len : int;
}

let initial_buckets = 64
let max_slots = 0xFF_FFFF

let keeps_identity t = t.policy <> Flow
let keeps_order t = match t.policy with Order | Timeliness -> true | Flow | Content -> false

let create policy =
  { policy; packets = 0; bytes = 0; size = 0; used = 0; buckets = initial_buckets;
    index = Bytes.empty; keys = Bytes.empty; hashes = Bytes.empty; dead = Bytes.empty;
    times = Float.Array.create 0; seq = Bytes.empty; seq_len = 0 }

let policy t = t.policy

let clear t =
  t.packets <- 0;
  t.bytes <- 0;
  t.size <- 0;
  t.used <- 0;
  t.seq_len <- 0;
  t.buckets <- initial_buckets;
  Bytes.fill t.index 0 (Bytes.length t.index) '\000';
  Bytes.fill t.dead 0 (Bytes.length t.dead) '\000'

(* Unchecked reads, for a slot below [used] and a cell number masked to
   the index: a checked [Bytes] read recomputes the length from the
   block's last byte, which doubled a membership test's cost. *)
external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

let key t s = get64u t.keys (8 * s)
let hash t s = Int32.to_int (get32u t.hashes (4 * s))
let live t s = Bytes.length t.dead = 0 || Bytes.get t.dead s = '\000'

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

let cells index = Bytes.length index / 4
let[@inline] cell index j = Int32.to_int (get32u index (4 * j)) land 0xFFFF_FFFF
let[@inline] set_cell index j c = Bytes.set_int32_ne index (4 * j) (Int32.of_int c)
let[@inline] tag h = h lsr 22
let[@inline] entry h s = (tag h lsl 24) lor (s + 1)

(* The index cell holding [fp] (hash [h]), or the free cell where it
   belongs.  Inlined, so a fingerprint read from bytes is compared
   there, never boxed. *)
let[@inline] find_key t h (fp : int64) =
  let index = t.index in
  let mask = cells index - 1 and tg = tag h in
  let j = ref (h land mask) in
  let c = ref (cell index !j) in
  while !c <> 0 && not (!c lsr 24 = tg && key t ((!c land max_slots) - 1) = fp) do
    j := (!j + 1) land mask;
    c := cell index !j
  done;
  !j

(* File slot [s], of hash [h], in the free cell its probe reaches. *)
let place index h s =
  let mask = cells index - 1 in
  let j = ref (h land mask) in
  while cell index !j <> 0 do
    j := (!j + 1) land mask
  done;
  set_cell index !j (entry h s)

(* An empty index with room for [n] fingerprints, at most half full. *)
let index_for n =
  let cap = ref 16 in
  while !cap < 2 * n do
    cap := 2 * !cap
  done;
  Bytes.make (4 * !cap) '\000'

let grow_index t =
  let index = index_for (max 8 (cells t.index)) in
  for s = 0 to t.used - 1 do
    if live t s then place index (hash t s) s
  done;
  t.index <- index

let grow_slots t =
  if t.used >= max_slots then invalid_arg "Summary: more than 2^24 - 1 fingerprints";
  let cap = min max_slots (max 16 (2 * t.used)) in
  let keys = Bytes.create (8 * cap) in
  Bytes.blit t.keys 0 keys 0 (8 * t.used);
  let hashes = Bytes.create (4 * cap) in
  Bytes.blit t.hashes 0 hashes 0 (4 * t.used);
  t.keys <- keys;
  t.hashes <- hashes;
  if Bytes.length t.dead > 0 then begin
    let dead = Bytes.make cap '\000' in
    Bytes.blit t.dead 0 dead 0 t.used;
    t.dead <- dead
  end;
  if t.policy = Timeliness then begin
    let times = Float.Array.create cap in
    Float.Array.blit t.times 0 times 0 t.used;
    t.times <- times
  end

(* Store the fingerprint at byte [off] of [src] in a new slot, indexed
   at free cell [j]. *)
let add t j h src off =
  if 8 * t.used = Bytes.length t.keys then grow_slots t;
  let s = t.used in
  t.used <- s + 1;
  Bytes.set_int64_ne t.keys (8 * s) (Bytes.get_int64_ne src off);
  Bytes.set_int32_ne t.hashes (4 * s) (Int32.of_int h);
  set_cell t.index j (entry h s);
  t.size <- t.size + 1;
  if t.size > 2 * t.buckets then t.buckets <- 2 * t.buckets;
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
    if 2 * (t.size + 1) > cells t.index then grow_index t;
    let h = hash_fp (Bytes.get_int64_ne src off) in
    let j = find_key t h (Bytes.get_int64_ne src off) in
    let c = cell t.index j in
    let s = if c <> 0 then (c land max_slots) - 1 else add t j h src off in
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
    if 8 * t.used = Bytes.length t.keys then grow_slots t;
    Bytes.set_int64_ne t.keys (8 * t.used) fp
  end;
  let s = insert t t.keys (8 * t.used) ~size in
  if t.policy = Timeliness then Float.Array.set t.times s time

let packets t = t.packets
let bytes t = t.bytes
let cardinal t = t.size

(* The index cell holding [fp], or [-1]. *)
let cell_of t fp =
  if t.size = 0 then -1
  else
    let j = find_key t (hash_fp fp) fp in
    if cell t.index j <> 0 then j else -1

let slot_of t fp =
  let j = cell_of t fp in
  if j < 0 then -1 else (cell t.index j land max_slots) - 1

let mem t fp = cell_of t fp >= 0

(* A slot's place in the stdlib order, from its hash: bucket
   descending, then oldest first.  Sorting these ints sorts the
   slots. *)
let rank t h s = ((t.buckets - 1 - (h land (t.buckets - 1))) lsl 24) lor s

(* Every slot held, in [fingerprints] order: a counting sort of the
   slots, oldest first already, by bucket. *)
let ordered t =
  let top = t.buckets - 1 and holes = Bytes.length t.dead > 0 in
  let start = Array.make (top + 2) 0 in
  for s = 0 to t.used - 1 do
    if (not holes) || live t s then begin
      let b = top - (hash t s land top) + 1 in
      start.(b) <- start.(b) + 1
    end
  done;
  for b = 1 to top + 1 do
    start.(b) <- start.(b) + start.(b - 1)
  done;
  let out = Array.make t.size 0 in
  for s = 0 to t.used - 1 do
    if (not holes) || live t s then begin
      let b = top - (hash t s land top) in
      out.(start.(b)) <- s;
      start.(b) <- start.(b) + 1
    end
  done;
  out

let fingerprints t =
  let slots = ordered t in
  let acc = ref [] in
  for i = Array.length slots - 1 downto 0 do
    acc := key t slots.(i) :: !acc
  done;
  !acc

let fold t ~init ~f =
  let acc = ref init and holes = Bytes.length t.dead > 0 in
  for s = 0 to t.used - 1 do
    if (not holes) || live t s then acc := f !acc (key t s)
  done;
  !acc

let nth t i =
  if i < 0 || i >= t.size then invalid_arg "Summary.nth";
  key t (ordered t).(i)

(* Whether [t] holds [fp], of hash [h]. *)
let[@inline] holds t h fp = t.size > 0 && cell t.index (find_key t h fp) <> 0

(* Membership is tested in slot order; only the (few) fingerprints
   returned are put in [fingerprints] order. *)
let diff ?exclude a b =
  let found = ref [] and n = ref 0 and holes = Bytes.length a.dead > 0 in
  for s = 0 to a.used - 1 do
    if (not holes) || live a s then begin
      let h = hash a s and fp = key a s in
      if not (holds b h fp || match exclude with Some e -> holds e h fp | None -> false)
      then begin
        found := rank a h s :: !found;
        incr n
      end
    end
  done;
  let ranks = Array.of_list !found in
  Array.sort (fun (x : int) y -> compare x y) ranks;
  let acc = ref [] in
  for i = !n - 1 downto 0 do
    acc := key a (ranks.(i) land max_slots) :: !acc
  done;
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

(* The held slots, renumbered densely in insertion order, so the copy
   keeps the original's order (its bucket count comes along). *)
let copy t =
  let n = t.size in
  let c =
    { t with keys = Bytes.create (8 * n); hashes = Bytes.create (4 * n); dead = Bytes.empty;
      index = (if n = 0 then Bytes.empty else index_for n);
      times = Float.Array.create (if t.policy = Timeliness then n else 0);
      seq = Bytes.sub t.seq 0 (8 * t.seq_len); used = n }
  in
  let j = ref 0 in
  for s = 0 to t.used - 1 do
    if live t s then begin
      let h = hash t s in
      Bytes.set_int64_ne c.keys (8 * !j) (key t s);
      Bytes.set_int32_ne c.hashes (4 * !j) (Int32.of_int h);
      if t.policy = Timeliness then Float.Array.set c.times !j (Float.Array.get t.times s);
      place c.index h !j;
      incr j
    end
  done;
  c

(* Backward-shift deletion: empty cell [j], then move each later cell
   of the probe run whose home does not lie cyclically after the gap
   into it. *)
let unindex t j =
  let index = t.index in
  let mask = cells index - 1 in
  let rec shift gap k =
    let k = (k + 1) land mask in
    let c = cell index k in
    if c = 0 then set_cell index gap 0
    else begin
      let home = hash t ((c land max_slots) - 1) land mask in
      if (k - home) land mask >= (k - gap) land mask then begin
        set_cell index gap c;
        shift k k
      end
      else shift gap k
    end
  in
  shift j j

let remove t fp =
  let j = cell_of t fp in
  if j >= 0 then begin
    let s = (cell t.index j land max_slots) - 1 in
    if Bytes.length t.dead = 0 then t.dead <- Bytes.make (Bytes.length t.keys / 8) '\000';
    Bytes.set t.dead s '\001';
    unindex t j;
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

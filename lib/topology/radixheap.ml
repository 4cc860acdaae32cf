(* Bucket b, 1 <= b < 63, holds the keys whose highest bit differing
   from [last] is bit b - 1, and bucket 0 the keys equal to [last];
   slot 63 is the level being read.  Each is a stack of (key, value)
   pairs side by side in one int array, the key of entry i at 2 i and
   its value at 2 i + 1, that grows by doubling from [room] words when
   first used.  [size] counts the entries outside the level, so a
   drained heap is known without a scan of the buckets. *)
type t = {
  room : int;
  mutable last : int;
  mutable size : int;
  rows : int array array;
  lens : int array;
}

(* Keys are non-negative ints, so they differ from [last] below bit 62. *)
let level_slot = 63

let create room =
  {
    room = 2 * max 1 room;
    last = 0;
    size = 0;
    rows = Array.make (level_slot + 1) [||];
    lens = Array.make (level_slot + 1) 0;
  }

let last t = t.last
let level t = t.rows.(level_slot)

let grow room a =
  if Array.length a = 0 then Array.make room 0
  else begin
    let b = Array.make (2 * Array.length a) 0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(* The bucket is the bit length of key lxor last: a short loop, since
   a search pushes keys near the last one it settled. *)
let push t key v =
  let x = ref (key lxor t.last) and b = ref 0 in
  while !x <> 0 do
    x := !x lsr 1;
    incr b
  done;
  let b = !b in
  let i = 2 * t.lens.(b) in
  if i = Array.length t.rows.(b) then t.rows.(b) <- grow t.room t.rows.(b);
  let row = t.rows.(b) in
  row.(i) <- key;
  row.(i + 1) <- v;
  t.lens.(b) <- t.lens.(b) + 1;
  t.size <- t.size + 1

(* Bucket b becomes the level: the two trade rows. *)
let promote t b =
  let row = t.rows.(b) in
  t.rows.(b) <- t.rows.(level_slot);
  t.rows.(level_slot) <- row;
  t.lens.(level_slot) <- t.lens.(b);
  t.lens.(b) <- 0

(* When bucket 0 is empty, the lowest non-empty bucket's least key
   becomes [last] and every entry in it moves to a lower bucket, the
   least ones to bucket 0; when they all hold that key (every bucket of
   a unit-cost search), the bucket is promoted whole instead. *)
let refill t b =
  let row = t.rows.(b) and len = t.lens.(b) in
  let m = ref row.(0) and same = ref true in
  for i = 1 to len - 1 do
    let k = row.(2 * i) in
    if k <> !m then begin
      same := false;
      if k < !m then m := k
    end
  done;
  t.last <- !m;
  if !same then promote t b
  else begin
    t.lens.(b) <- 0;
    t.size <- t.size - len;
    for i = 0 to len - 1 do
      push t row.(2 * i) row.((2 * i) + 1)
    done;
    promote t 0
  end

let next_level t =
  let lens = t.lens in
  lens.(level_slot) <- 0;
  if t.size = 0 then t.last <- 0
  else begin
    let b = ref 0 in
    while lens.(!b) = 0 do
      incr b
    done;
    if !b = 0 then promote t 0 else refill t !b;
    t.size <- t.size - lens.(level_slot)
  end;
  lens.(level_slot)

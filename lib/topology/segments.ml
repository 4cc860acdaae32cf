type segment = Graph.node list

let windows xs x =
  if x <= 0 then invalid_arg "Segments.windows: non-positive width";
  let arr = Array.of_list xs in
  let n = Array.length arr in
  if n < x then []
  else List.init (n - x + 1) (fun i -> Array.to_list (Array.sub arr i x))

(* The distinct windows found so far, back to back in [store] in
   first-occurrence order, each as its routers and then its width.
   [slots] is an open-addressed table of pairs: slots.(2 j) is the place
   of slot j's window, the index of its width in the store (-1 for a
   free slot), and slots.(2 j + 1) its hash.  It is probed linearly from
   a window's hash and kept at most half full; a probe whose hash
   matches compares the window in place, so a lookup reads one pair and
   one stored window. *)
type table = {
  mutable store : int array;
  mutable used : int;
  mutable count : int;
  mutable slots : int array;
}

let fresh_slots cap = Array.init (2 * cap) (fun j -> if j land 1 = 0 then -1 else 0)

(* The low bits pick the slot, so fold the high bits of the product
   into them. *)
let slot_of h mask =
  let m = h * 0x2545F4914F6CDD1D in
  (m lxor (m lsr 32)) land mask

let rec same (store : int array) at (path : int array) i x j =
  j = x || (store.(at + j) = path.(i + j) && same store at path i x (j + 1))

(* The slot holding window path.(i) .. path.(i + x - 1), whose hash is
   [h], or the free slot where it belongs. *)
let rec probe slots store path i x h j mask =
  let place = slots.(2 * j) in
  if place < 0
     || (slots.((2 * j) + 1) = h && store.(place) = x && same store (place - x) path i x 0)
  then j
  else probe slots store path i x h ((j + 1) land mask) mask

let rehash t =
  let old = t.slots in
  let cap = Array.length old in
  let slots = fresh_slots cap and mask = cap - 1 in
  for k = 0 to (cap / 2) - 1 do
    if old.(2 * k) >= 0 then begin
      let j = ref (slot_of old.((2 * k) + 1) mask) in
      while slots.(2 * !j) >= 0 do
        j := (!j + 1) land mask
      done;
      slots.(2 * !j) <- old.(2 * k);
      slots.((2 * !j) + 1) <- old.((2 * k) + 1)
    end
  done;
  t.slots <- slots

(* Add window path.(i) .. path.(i + x - 1) unless the store has it. *)
let add t path i x =
  let h = ref x in
  for j = i to i + x - 1 do
    h := (!h * 1_000_003) + path.(j)
  done;
  let h = !h in
  let mask = (Array.length t.slots / 2) - 1 in
  let j = probe t.slots t.store path i x h (slot_of h mask) mask in
  if t.slots.(2 * j) < 0 then begin
    let at = t.used in
    if at + x + 1 > Array.length t.store then begin
      let store = Array.make (2 * (at + x + 1)) 0 in
      Array.blit t.store 0 store 0 at;
      t.store <- store
    end;
    Array.blit path i t.store at x;
    t.store.(at + x) <- x;
    t.used <- at + x + 1;
    t.slots.(2 * j) <- at + x;
    t.slots.((2 * j) + 1) <- h;
    t.count <- t.count + 1;
    if 4 * t.count > Array.length t.slots then rehash t
  end

(* [Stdlib.min] and [max] compare polymorphically, through a C call. *)
let imin (a : int) b = if a < b then a else b
let imax (a : int) b = if a > b then a else b

(* The one enumeration behind both families.  Routed paths are taken
   src-major, then dst, into one reusable buffer; a path's windows of
   widths [lo] to [hi], each clipped to the path's length (a segment has
   at least 3 routers), go into the table width by width and offset by
   offset, and the table is returned: [family] builds the lists and
   [pr_counts] counts per router.

   Under next-hop routing the rest of a path from router x toward d is
   fixed by the state (x, d), and so is every window of width [lo] or
   more that starts at x.  So a walk marks each state it passes and
   stops at the first state already marked (marks are closed under the
   next hop: every later state is marked too), once it has read the
   hi - 1 routers from there that windows from its fresh states still
   need.  The windows from a marked state on were all taken, in
   first-occurrence order, by the walk that marked it, so the family
   and its order are those of the full walk.  A window narrower than
   [lo] is a whole path shorter than [lo] (Pi2's, for k >= 2): it
   depends on the source, so it is kept even from a marked source,
   whose read-ahead reaches d on a path that short.  Where no such
   window exists (lo = 3), a walk from a marked source reads nothing.

   The table starts with 1.5 slots for each 3-window the degrees allow
   (a router of degree d is the middle of at most d (d - 1) of them in
   a duplex graph; Sprintlink's 17,976 bound its 14,882, EBONE's 1,452
   its 1,192), so the k = 1 family seldom doubles it. *)
let walk rt ~lo ~hi =
  let g = Routing.graph rt in
  let n = Graph.size g in
  let path = Array.make n 0 in
  let bound = Array.fold_left (fun acc d -> acc + (d * (d - 1))) 0 (Graph.degrees g) in
  let cap = ref 16 in
  while !cap < bound + (bound / 2) do
    cap := 2 * !cap
  done;
  let t = { store = Array.make (2 * !cap) 0; used = 0; count = 0; slots = fresh_slots !cap } in
  let walked = Bytes.make (n * n) '\000' in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst then begin
        (* The fresh states first.  A routed path visits each router at
           most once, and a next hop of -1 (only ever at [src]) means
           [dst] is unreachable. *)
        let fresh = ref 0 and x = ref src in
        while !x >= 0 && !x <> dst && Bytes.get walked ((!x * n) + dst) = '\000' do
          Bytes.set walked ((!x * n) + dst) '\001';
          path.(!fresh) <- !x;
          incr fresh;
          x := Routing.next_hop_id rt !x ~dst
        done;
        if !x >= 0 then begin
          (* Then [dst] or the first marked state, and the routers after
             it that windows from the fresh states reach: hi - 1 in all,
             or none from a marked source when lo = 3. *)
          let fresh = !fresh in
          let need = if fresh = 0 && lo <= 3 then 0 else fresh + hi - 1 in
          let len = ref fresh and y = ref !x in
          while !len < need && !y >= 0 do
            path.(!len) <- !y;
            incr len;
            y := if !y = dst || !len = need then -1 else Routing.next_hop_id rt !y ~dst
          done;
          let len = !len in
          let whole = len > 0 && path.(len - 1) = dst in
          for x = imax 3 (imin lo len) to imin hi len do
            for i = 0 to if x < lo && whole then 0 else imin (len - x) (fresh - 1) do
              add t path i x
            done
          done
        end
      end
    done
  done;
  t

(* The family's lists, built from the store's last window back. *)
let family t =
  let family = ref [] and at = ref t.used in
  while !at > 0 do
    let x = t.store.(!at - 1) in
    let seg = ref [] in
    for j = !at - 2 downto !at - 1 - x do
      seg := t.store.(j) :: !seg
    done;
    family := !seg :: !family;
    at := !at - 1 - x
  done;
  !family

let pi2_walk name rt ~k =
  if k < 1 then invalid_arg (Printf.sprintf "Segments.%s: k must be >= 1" name);
  (* A path shorter than k+2 routers is monitored whole: both ends
     terminal. *)
  walk rt ~lo:(k + 2) ~hi:(k + 2)

let pik2_walk name rt ~k =
  if k < 1 then invalid_arg (Printf.sprintf "Segments.%s: k must be >= 1" name);
  walk rt ~lo:3 ~hi:(k + 2)

let pi2_family rt ~k = family (pi2_walk "pi2_family" rt ~k)
let pik2_family rt ~k = family (pik2_walk "pik2_family" rt ~k)

(* Per-router |Pr| read off the store: a window counts for each of its
   routers, or for its two ends only. *)
let pr_counts rt t ~ends =
  let counts = Array.make (Graph.size (Routing.graph rt)) 0 in
  let bump j = counts.(t.store.(j)) <- counts.(t.store.(j)) + 1 in
  let at = ref t.used in
  while !at > 0 do
    let first = !at - 1 - t.store.(!at - 1) and last = !at - 2 in
    if ends then begin
      bump first;
      bump last
    end
    else
      for j = first to last do
        bump j
      done;
    at := first
  done;
  counts

let pi2_pr_counts rt ~k = pr_counts rt (pi2_walk "pi2_pr_counts" rt ~k) ~ends:false
let pik2_pr_counts rt ~k = pr_counts rt (pik2_walk "pik2_pr_counts" rt ~k) ~ends:true

let pr_stats counts =
  let counts = Array.map float_of_int counts in
  if Array.length counts = 0 then (0.0, 0.0, 0.0)
  else begin
    let _, max_v = Mrstats.Descriptive.min_max counts in
    (max_v, Mrstats.Descriptive.mean counts, Mrstats.Descriptive.median counts)
  end

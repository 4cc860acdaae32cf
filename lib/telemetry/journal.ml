type 'a t = {
  capacity : int;
  ring : 'a array;
  mutable next : int;
  mutable total : int;
  (* Single-writer guard: the domain id that owns the ring (-1 =
     unclaimed).  The ring indices are plain mutable fields, so
     concurrent [record] from two domains would corrupt them silently;
     instead the first recording domain claims the journal and any other
     writer fails loudly.  Per-domain journals merged at collection are
     the supported multi-domain pattern (see the @trace stress test). *)
  owner : int Atomic.t;
}

let unclaimed = -1

(* Empty slots hold an immediate sentinel rather than [None]: recording
   then costs zero allocation (the old option array boxed a [Some] per
   record on the telemetry fast path).  The sentinel is never read —
   [total]/[next] delimit the filled region exactly.  Consequence: the
   element type must be boxed or immediate (records, variants, ints);
   [float Journal.t] would need a flat array and is not supported. *)
let none : 'a = Obj.magic 0

let create ?(capacity = 65536) () =
  if capacity <= 0 then invalid_arg "Journal.create: capacity must be positive";
  { capacity; ring = Array.make capacity none; next = 0; total = 0;
    owner = Atomic.make unclaimed }

let capacity t = t.capacity

let check_owner t =
  let self = (Domain.self () :> int) in
  let owner = Atomic.get t.owner in
  if
    owner <> self
    && not (owner = unclaimed && Atomic.compare_and_set t.owner unclaimed self)
  then
    invalid_arg
      (Printf.sprintf
         "Journal.record: journal owned by domain %d, write from domain %d \
          (use one journal per domain and merge at collection)"
         (Atomic.get t.owner) self)

let record t x =
  check_owner t;
  t.ring.(t.next) <- x;
  t.next <- (t.next + 1) mod t.capacity;
  t.total <- t.total + 1

(* Once the ring has wrapped, the value the next [record] will evict.
   A caller that owns its element type can mutate it in place and hand
   it straight back to [record]: a free-list of size one, which is all
   a ring buffer ever evicts per write. *)
let full t = t.total >= t.capacity

let evictee t =
  if not (full t) then invalid_arg "Journal.evictee: the ring has not wrapped";
  t.ring.(t.next)

let of_retained ~capacity ~total records =
  let t = create ~capacity () in
  let n = List.length records in
  if total < 0 || n <> min total capacity then
    invalid_arg "Journal.of_retained: records must number min total capacity";
  List.iteri (fun i x -> t.ring.(i) <- x) records;
  t.next <- n mod capacity;
  t.total <- total;
  t

let total t = t.total
let retained t = min t.total t.capacity
let dropped t = max 0 (t.total - t.capacity)

let iter t f =
  (* Oldest first: the slot after [next] holds the oldest survivor once
     the ring has wrapped. *)
  if t.total <= t.capacity then
    for i = 0 to t.total - 1 do
      f t.ring.(i)
    done
  else
    for i = 0 to t.capacity - 1 do
      f t.ring.((t.next + i) mod t.capacity)
    done

let fold t ~init ~f =
  let acc = ref init in
  iter t (fun x -> acc := f !acc x);
  !acc

let to_list t = List.rev (fold t ~init:[] ~f:(fun acc x -> x :: acc))

let clear t =
  Array.fill t.ring 0 t.capacity none;
  t.next <- 0;
  t.total <- 0;
  Atomic.set t.owner unclaimed

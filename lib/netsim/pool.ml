(* Packet freelist: dead packets come back through the entity [release]
   hooks and are recycled by the flow layer instead of being
   re-allocated, so a steady-state mint allocates nothing: the recycled
   packet's payload is rehashed into its own bytes.

   Debug poison mode stamps released packets with a sentinel uid and a
   zero size; any later read of a recycled packet through a stale
   reference is then loudly wrong, and a double release is detected at
   the pool boundary. *)

type t = {
  mutable free : Packet.t array;
  mutable n : int;
  poison : bool;
  mutable fresh : int;     (* packets allocated because the pool was dry *)
  mutable recycled : int;  (* acquisitions served from the freelist *)
  mutable released : int;  (* packets returned *)
}

type stats = { fresh : int; recycled : int; released : int; available : int }

let none : Packet.t = Obj.magic 0 (* scrub value for vacated slots *)

let poison_uid = -0x0DEAD

let create ?(poison = false) () =
  { free = [||]; n = 0; poison; fresh = 0; recycled = 0; released = 0 }

let is_poisoned p = p.Packet.uid = poison_uid

let release t p =
  if t.poison then begin
    if is_poisoned p then
      failwith "Pool.release: double release (packet already in the pool)";
    Packet.poison p ~uid:poison_uid
  end;
  let cap = Array.length t.free in
  if t.n = cap then begin
    let nfree = Array.make (max 64 (2 * cap)) none in
    Array.blit t.free 0 nfree 0 t.n;
    t.free <- nfree
  end;
  t.free.(t.n) <- p;
  t.n <- t.n + 1;
  t.released <- t.released + 1

let acquire t ~clock ~uid ~src ~dst ~flow ~size proto =
  if t.n = 0 then begin
    t.fresh <- t.fresh + 1;
    Packet.make_at ~clock ~uid ~src ~dst ~flow ~size proto
  end
  else begin
    t.n <- t.n - 1;
    let p = t.free.(t.n) in
    t.free.(t.n) <- none;
    t.recycled <- t.recycled + 1;
    Packet.reinit p ~clock ~uid ~src ~dst ~flow ~size proto;
    p
  end

let stats (t : t) =
  { fresh = t.fresh; recycled = t.recycled; released = t.released;
    available = t.n }

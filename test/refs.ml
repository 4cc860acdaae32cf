(* References the searches, the segment walk, set reconciliation, the
   event queue and the traffic summaries are checked against, shared by
   the suites.  They share no code with what they check. *)

open Topology

(* Floyd–Warshall: fw.(v).(d) is the least cost from v to d, [max_int]
   when d is unreachable. *)
let floyd_warshall g =
  let n = Graph.size g in
  let fw = Array.make_matrix n n max_int in
  for v = 0 to n - 1 do
    fw.(v).(v) <- 0
  done;
  List.iter (fun (l : Graph.link) -> fw.(l.Graph.src).(l.Graph.dst) <- l.Graph.cost) (Graph.links g);
  for m = 0 to n - 1 do
    for a = 0 to n - 1 do
      for b = 0 to n - 1 do
        if fw.(a).(m) <> max_int && fw.(m).(b) <> max_int && fw.(a).(m) + fw.(m).(b) < fw.(a).(b)
        then fw.(a).(b) <- fw.(a).(m) + fw.(m).(b)
      done
    done
  done;
  fw

(* The list-windows oracle for both families: the windows each family
   keeps of every routed path, in [Routing.all_routed_paths] order
   (src-major, then dst), widths ascending, offsets ascending, first
   occurrences kept.  The next-hop walk in [Segments] must list exactly
   these, order included: the deployments number their segments in it. *)
let ref_family rt ~widths =
  let seen = Hashtbl.create 4096 in
  List.concat_map
    (fun p ->
      List.concat_map (Segments.windows p) (widths (List.length p))
      |> List.filter (fun s ->
             (not (Hashtbl.mem seen s)) && (Hashtbl.add seen s (); true)))
    (Routing.all_routed_paths rt)

let ref_pi2_family rt ~k =
  ref_family rt ~widths:(fun len -> if len < 3 then [] else [ min len (k + 2) ])

let ref_pik2_family rt ~k = ref_family rt ~widths:(fun _ -> List.init k (fun i -> i + 3))

let families_match rt k =
  Segments.pi2_family rt ~k = ref_pi2_family rt ~k
  && Segments.pik2_family rt ~k = ref_pik2_family rt ~k

(* Per-router |Pr| from a reference family: Pi2 counts every member of
   a segment, Pik2 its two ends. *)
let ref_pr_counts rt family ~members =
  let counts = Array.make (Graph.size (Routing.graph rt)) 0 in
  List.iter (List.iter (fun r -> counts.(r) <- counts.(r) + 1)) (List.map members family);
  counts

let ends seg = [ List.hd seg; List.nth seg (List.length seg - 1) ]

let counts_match rt k =
  Segments.pi2_pr_counts rt ~k = ref_pr_counts rt (ref_pi2_family rt ~k) ~members:Fun.id
  && Segments.pik2_pr_counts rt ~k = ref_pr_counts rt (ref_pik2_family rt ~k) ~members:ends

(* The Gaussian reconciliation oracle (Appendix A as an m x m linear
   system).  [solve] finds some x with m x = rhs over GF(p) by
   Gauss-Jordan elimination, free variables 0; None if inconsistent.
   Neither argument is mutated. *)
let solve m rhs =
  let open Setrecon in
  let rows = Array.length m in
  let cols = if rows = 0 then 0 else Array.length m.(0) in
  let a = Array.map Array.copy m and b = Array.copy rhs in
  let pivot_col = Array.make rows (-1) in
  let row = ref 0 in
  for col = 0 to cols - 1 do
    let pr = ref !row in
    while !pr < rows && a.(!pr).(col) = 0 do
      incr pr
    done;
    if !pr < rows then begin
      let r0 = !row and pr = !pr in
      let t = a.(pr) in
      a.(pr) <- a.(r0);
      a.(r0) <- t;
      let t = b.(pr) in
      b.(pr) <- b.(r0);
      b.(r0) <- t;
      let inv = Gfp.inv a.(r0).(col) in
      for c = col to cols - 1 do
        a.(r0).(c) <- Gfp.mul a.(r0).(c) inv
      done;
      b.(r0) <- Gfp.mul b.(r0) inv;
      for r = 0 to rows - 1 do
        let f = a.(r).(col) in
        if r <> r0 && f <> 0 then begin
          for c = col to cols - 1 do
            a.(r).(c) <- Gfp.sub a.(r).(c) (Gfp.mul f a.(r0).(c))
          done;
          b.(r) <- Gfp.sub b.(r) (Gfp.mul f b.(r0))
        end
      done;
      pivot_col.(r0) <- col;
      incr row
    end
  done;
  if Array.exists (( <> ) 0) (Array.sub b !row (rows - !row)) then None
  else begin
    let x = Array.make cols 0 in
    for r = 0 to !row - 1 do
      x.(pivot_col.(r)) <- b.(r)
    done;
    Some x
  end

(* One attempt at a bound: monic P (degree m1) and Q (degree m2),
   m1 - m2 = |A| - |B| and m1 + m2 the bound rounded up to its parity,
   from P(z) = F(z) Q(z) at m1 + m2 sample points; reduced by their gcd,
   then checked at 8 more points.  The result record is [Reconcile]'s.
   The sets' elements must be distinct. *)
let reconcile_with_bound ~bound ~a ~b =
  let open Setrecon in
  let d = Array.length a - Array.length b in
  let bound = max bound (abs d) in
  let total = if (bound - d) mod 2 <> 0 then bound + 1 else bound in
  let m1 = (total + d) / 2 and m2 = (total - d) / 2 in
  let npoints = total + 8 in
  let points = Array.init npoints (fun i -> Gfp.p - 1 - i) in
  let chi elements z = Array.fold_left (fun acc e -> Gfp.mul acc (Gfp.sub z e)) 1 elements in
  let fa = Array.map (chi a) points and fb = Array.map (chi b) points in
  (* Unknowns p_0..p_(m1-1), q_0..q_(m2-1); per point
     sum p_j z^j - f sum q_j z^j = f z^m2 - z^m1. *)
  let row i =
    let z = points.(i) and f = Gfp.div fa.(i) fb.(i) in
    Array.init (m1 + m2) (fun j ->
        if j < m1 then Gfp.pow z j else Gfp.neg (Gfp.mul f (Gfp.pow z (j - m1))))
  in
  let rhs i =
    let z = points.(i) in
    Gfp.sub (Gfp.mul (Gfp.div fa.(i) fb.(i)) (Gfp.pow z m2)) (Gfp.pow z m1)
  in
  match solve (Array.init total row) (Array.init total rhs) with
  | None -> None
  | Some x ->
      let monic lo n = Poly.of_coeffs (Array.to_list (Array.sub x lo n) @ [ 1 ]) in
      let p = monic 0 m1 and q = monic m1 m2 in
      let g = Poly.gcd p q in
      let p = fst (Poly.divmod p g) and q = fst (Poly.divmod q g) in
      let holds i =
        Gfp.mul (Poly.eval p points.(i)) fb.(i) = Gfp.mul (Poly.eval q points.(i)) fa.(i)
      in
      (* A candidate is accepted when P's roots are distinct elements of
         A and not B, Q's of B and not A, and their counts differ by d.
         Holding both sets, the oracle reads the roots off them: P is
         the product of (z - x) over A\B's zeros of P exactly when it
         has deg P of them. *)
      let zeros poly xs ys =
        Array.to_list xs
        |> List.filter (fun x -> (not (Array.mem x ys)) && Poly.eval poly x = 0)
        |> List.sort compare
      in
      let rp = zeros p a b and rq = zeros q b a in
      if
        List.for_all holds (List.init 8 (( + ) total))
        && List.length rp = Poly.degree p
        && List.length rq = Poly.degree q
        && List.length rp - List.length rq = d
      then
        Some
          { Reconcile.a_minus_b = rp; b_minus_a = rq; evals_used = npoints; attempts = 1 }
      else None

(* [Reconcile.diff]'s doubling from 8, on the reference attempt. *)
let reconcile_diff ?(max_bound = 1024) ~a ~b () =
  let rec loop bound attempts =
    if bound > max_bound then None
    else
      match reconcile_with_bound ~bound ~a ~b with
      | Some r -> Some { r with Setrecon.Reconcile.attempts }
      | None -> loop (bound * 2) (attempts + 1)
  in
  loop 8 1

(* The event queue's oracle: the flat binary min-heap [Prioq.Event] was
   before it became a ladder queue.  Four parallel scalar arrays (time,
   key, packed descriptor, payload handle) sift; payloads sit still in a
   handle-indexed side table, two cells per handle, with free handles
   threaded through their first cell.  Pops come out in (time, key)
   order. *)
module Binheap = struct
  type t = {
    mutable prio : float array;
    mutable key : int array;
    mutable meta : int array;
    mutable hnd : int array;
    mutable slots : Obj.t array;
    mutable free : int;
    mutable fresh : int;
    mutable size : int;
    mutable next_seq : int;
  }

  (* A popped event: time, key, tag, operand and both payloads. *)
  type event = { time : float; key : int; tag : int; iarg : int; pa : Obj.t; pb : Obj.t }

  let nil : Obj.t = Obj.repr 0

  let create () =
    { prio = [||]; key = [||]; meta = [||]; hnd = [||]; slots = [||]; free = -1;
      fresh = 0; size = 0; next_seq = 0 }

  let length t = t.size

  let reserve t =
    let sq = t.next_seq in
    t.next_seq <- sq + 1;
    sq

  let acquire t =
    let h = t.free in
    if h >= 0 then begin
      t.free <- (Obj.obj t.slots.(2 * h) : int);
      h
    end
    else begin
      let h = t.fresh in
      t.fresh <- h + 1;
      h
    end

  let release t h =
    t.slots.(2 * h) <- Obj.repr t.free;
    t.slots.((2 * h) + 1) <- nil;
    t.free <- h

  let grow t =
    let cap = Array.length t.prio in
    if t.size = cap then begin
      let ncap = max 64 (2 * cap) in
      let extend a fill n =
        let b = Array.make ncap fill in
        Array.blit a 0 b 0 n;
        b
      in
      t.prio <- extend t.prio 0.0 t.size;
      t.key <- extend t.key 0 t.size;
      t.meta <- extend t.meta 0 t.size;
      t.hnd <- extend t.hnd 0 t.size;
      let slots = Array.make (2 * ncap) nil in
      Array.blit t.slots 0 slots 0 (2 * t.fresh);
      t.slots <- slots
    end

  let earlier t i p k = p < t.prio.(i) || (p = t.prio.(i) && k < t.key.(i))

  let set t i p k m h =
    t.prio.(i) <- p;
    t.key.(i) <- k;
    t.meta.(i) <- m;
    t.hnd.(i) <- h

  let move t ~src ~dst = set t dst t.prio.(src) t.key.(src) t.meta.(src) t.hnd.(src)

  let push_keyed t ~time ~key ~tag ~iarg pa pb =
    grow t;
    let h = acquire t in
    t.slots.(2 * h) <- pa;
    t.slots.((2 * h) + 1) <- pb;
    let i = ref t.size in
    t.size <- t.size + 1;
    while !i > 0 && earlier t ((!i - 1) / 2) time key do
      move t ~src:((!i - 1) / 2) ~dst:!i;
      i := (!i - 1) / 2
    done;
    set t !i time key (tag lor (iarg lsl 8)) h

  let push t ~time ~tag ~iarg pa pb = push_keyed t ~time ~key:(reserve t) ~tag ~iarg pa pb

  (* Move the last element to the root and sift it down. *)
  let remove_root t =
    let n = t.size - 1 in
    t.size <- n;
    if n > 0 then begin
      let p = t.prio.(n) and k = t.key.(n) and m = t.meta.(n) and h = t.hnd.(n) in
      let i = ref 0 and continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 in
        if l >= n then continue := false
        else begin
          let c = if l + 1 < n && earlier t l t.prio.(l + 1) t.key.(l + 1) then l + 1 else l in
          if t.prio.(c) < p || (t.prio.(c) = p && t.key.(c) < k) then begin
            move t ~src:c ~dst:!i;
            i := c
          end
          else continue := false
        end
      done;
      set t !i p k m h
    end

  let pop t ~until ~strict =
    if t.size = 0 then None
    else begin
      let p = t.prio.(0) in
      if (if strict then p >= until else p > until) then None
      else begin
        let h = t.hnd.(0) and m = t.meta.(0) in
        let ev =
          { time = p; key = t.key.(0); tag = m land 0xff; iarg = m lsr 8;
            pa = t.slots.(2 * h); pb = t.slots.((2 * h) + 1) }
        in
        release t h;
        remove_root t;
        Some ev
      end
    end
end

(* The summary's oracle: [Core.Summary] as it was while it kept its
   fingerprints in the stdlib [Hashtbl] (unseeded, as the flat table
   is); [clear] resets the tables to their 64 initial buckets, as a
   fresh summary has.  The flat summary must read exactly as this one,
   [fingerprints]' order included: Byz prunes by position in it. *)
module Hashtbl_summary = struct
  module S = Core.Summary

  type t = {
    policy : S.policy;
    mutable packets : int;
    mutable bytes : int;
    fps : (int64, unit) Hashtbl.t;
    mutable seq_rev : int64 list;
    times : (int64, float) Hashtbl.t;
  }

  let create policy =
    { policy; packets = 0; bytes = 0; fps = Hashtbl.create ~random:false 64;
      seq_rev = [];
      times = Hashtbl.create ~random:false (if policy = S.Timeliness then 64 else 1) }

  let keeps_identity t = t.policy <> S.Flow
  let keeps_order t = match t.policy with S.Order | S.Timeliness -> true | _ -> false

  let observe t ~fp ~size ~time =
    t.packets <- t.packets + 1;
    t.bytes <- t.bytes + size;
    if keeps_identity t then Hashtbl.replace t.fps fp ();
    if keeps_order t then t.seq_rev <- fp :: t.seq_rev;
    if t.policy = S.Timeliness then Hashtbl.replace t.times fp time

  let mem t fp = keeps_identity t && Hashtbl.mem t.fps fp
  let fingerprints t = Hashtbl.fold (fun fp () acc -> fp :: acc) t.fps []

  let sequence t =
    if not (keeps_order t) then invalid_arg "sequence";
    Array.of_list (List.rev t.seq_rev)

  let time_of t fp =
    if t.policy = S.Timeliness then Hashtbl.find_opt t.times fp else None

  let state_words t =
    match t.policy with
    | S.Flow -> 2
    | S.Content -> 2 + Hashtbl.length t.fps
    | S.Order -> 2 + List.length t.seq_rev
    | S.Timeliness -> 2 + (2 * List.length t.seq_rev)

  let copy t =
    { t with fps = Hashtbl.copy t.fps; times = Hashtbl.copy t.times }

  let remove t fp =
    if keeps_identity t && Hashtbl.mem t.fps fp then begin
      Hashtbl.remove t.fps fp;
      t.packets <- t.packets - 1;
      if keeps_order t then
        t.seq_rev <- List.filter (fun f -> not (Int64.equal f fp)) t.seq_rev;
      Hashtbl.remove t.times fp
    end

  let clear t =
    t.packets <- 0;
    t.bytes <- 0;
    Hashtbl.reset t.fps;
    t.seq_rev <- [];
    Hashtbl.reset t.times
end

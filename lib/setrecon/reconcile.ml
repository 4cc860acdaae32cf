let reserved = 1 lsl 20
let universe_size = Gfp.p - reserved

let element_of_fingerprint fp = Gfp.of_int64 fp mod universe_size

let check_universe name elements =
  Array.iter
    (fun e ->
      if e < 0 || e >= universe_size then
        invalid_arg
          (Printf.sprintf "Reconcile.%s: element %d outside universe [0,%d)" name e
             universe_size))
    elements

let char_evals ~elements ~points =
  Array.map
    (fun z -> Array.fold_left (fun acc e -> Gfp.mul acc (Gfp.sub z e)) 1 elements)
    points

let sample_points n = Array.init n (fun i -> Gfp.p - 1 - i)

type result = {
  a_minus_b : int list;
  b_minus_a : int list;
  evals_used : int;
  attempts : int;
}

let check_points = 8

(* Membership tables for the acceptance test. *)
let table_of elements =
  let h = Hashtbl.create (Array.length elements * 2) in
  Array.iter (fun e -> Hashtbl.replace h e ()) elements;
  h

let verify_candidate ~ha ~hb ~d roots_p roots_q =
  let sorted_distinct xs =
    let s = List.sort_uniq compare xs in
    List.length s = List.length xs
  in
  sorted_distinct roots_p && sorted_distinct roots_q
  && List.for_all (fun r -> Hashtbl.mem ha r && not (Hashtbl.mem hb r)) roots_p
  && List.for_all (fun r -> Hashtbl.mem hb r && not (Hashtbl.mem ha r)) roots_q
  && List.length roots_p - List.length roots_q = d

(* Newton interpolation through (points.(i), c.(i)) for i < n = |c|,
   expanded into coefficients by Horner's rule; [c] is overwritten by
   the divided differences.  Consecutive sample points differ by -1, so
   z_i - z_(i-j) = -j: each column of divided differences divides by
   one constant. *)
let interpolate points c =
  let n = Array.length c in
  for j = 1 to n - 1 do
    let w = Gfp.inv (Gfp.neg j) in
    for i = n - 1 downto j do
      c.(i) <- Gfp.mul (Gfp.sub c.(i) c.(i - 1)) w
    done
  done;
  let f = Array.make n 0 in
  for j = n - 1 downto 0 do
    (* f <- f * (z - z_j) + c_j, f of degree n - 2 - j so far. *)
    let zj = points.(j) in
    for i = n - 1 - j downto 1 do
      f.(i) <- Gfp.sub f.(i - 1) (Gfp.mul zj f.(i))
    done;
    f.(0) <- Gfp.sub c.(j) (Gfp.mul zj f.(0))
  done;
  Poly.of_coeffs (Array.to_list f)

(* The extended Euclidean algorithm on (r0, r1) = (M, f), keeping each
   remainder r and its cofactor t (r = s M + t f), up to the first
   remainder of degree < [hi]. *)
let rec reconstruct ~hi r0 t0 r1 t1 =
  if Poly.degree r1 < hi then (r1, t1)
  else
    let q, r2 = Poly.divmod r0 r1 in
    reconstruct ~hi r1 t1 r2 (Poly.sub t0 (Poly.mul q t1))

(* Rational reconstruction (Cauchy interpolation).  With the larger side
   on top, F = chi_top / chi_bottom = P / Q for monic P, Q with
   deg P - deg Q = e = |d| and deg P <= hi.  R = P - z^e Q has degree
   < hi and R = (F - z^e) Q mod M, M = prod (z - z_i) over the first
   [total] points; the shift is what lets a tight bound (|A\B| + |B\A|
   = total) succeed on [total] points.  The Euclidean remainder of
   degree < hi is then R up to a constant, and its cofactor Q. *)
let attempt_with_bound rng ~bound ~a ~b ~ha ~hb =
  let d = Array.length a - Array.length b in
  let e = abs d in
  let bound = max bound e in
  (* The numerator/denominator degrees must differ by exactly d and sum to
     the bound, so fix parity. *)
  let total = if (bound - e) mod 2 <> 0 then bound + 1 else bound in
  let hi = (total + e) / 2 in
  let npoints = total + check_points in
  let points = sample_points npoints in
  let fa = char_evals ~elements:a ~points in
  let fb = char_evals ~elements:b ~points in
  let top, bottom = if d < 0 then (fb, fa) else (fa, fb) in
  let ys =
    Array.init total (fun i ->
        Gfp.sub (Gfp.div top.(i) bottom.(i)) (Gfp.pow points.(i) e))
  in
  let m = Poly.from_roots (Array.to_list (Array.sub points 0 total)) in
  let r, t = reconstruct ~hi m Poly.zero (interpolate points ys) Poly.one in
  let lc = Gfp.inv (Poly.leading t) in
  let q = Poly.scale lc t in
  let p = Poly.add (Poly.scale lc r) (Array.append (Array.make e 0) q) in
  let p, q = if d < 0 then (q, p) else (p, q) in
  (* Check-point verification: P(z) * chi_B(z) = Q(z) * chi_A(z). *)
  let holds i =
    Gfp.mul (Poly.eval p points.(i)) fb.(i) = Gfp.mul (Poly.eval q points.(i)) fa.(i)
  in
  if not (List.for_all holds (List.init check_points (( + ) total))) then None
  else begin
    match (Poly.roots ~rng p, Poly.roots ~rng q) with
    | Some rp, Some rq when verify_candidate ~ha ~hb ~d rp rq ->
        Some
          { a_minus_b = List.sort compare rp;
            b_minus_a = List.sort compare rq;
            evals_used = npoints;
            attempts = 1 }
    | _ -> None
  end

let default_rng () = Random.State.make [| 0x7ec0; 0x11e |]

let diff_with_bound ?rng ~bound ~a ~b () =
  check_universe "diff_with_bound" a;
  check_universe "diff_with_bound" b;
  let rng = match rng with Some r -> r | None -> default_rng () in
  attempt_with_bound rng ~bound ~a ~b ~ha:(table_of a) ~hb:(table_of b)

let diff ?rng ?(max_bound = 1024) ~a ~b () =
  check_universe "diff" a;
  check_universe "diff" b;
  let rng = match rng with Some r -> r | None -> default_rng () in
  let ha = table_of a and hb = table_of b in
  let rec loop bound attempts =
    if bound > max_bound then None
    else begin
      match attempt_with_bound rng ~bound ~a ~b ~ha ~hb with
      | Some r -> Some { r with attempts }
      | None -> loop (bound * 2) (attempts + 1)
    end
  in
  loop 8 1

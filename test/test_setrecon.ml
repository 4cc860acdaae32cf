(* Tests for the setrecon substrate: GF(p) arithmetic, polynomials,
   Cantor-Zassenhaus root finding, the Appendix A reconciliation
   algorithm, and Bloom filters. *)

open Setrecon

let rng () = Random.State.make [| 1234 |]

(* --- Gfp --- *)

let test_gfp_basics () =
  Alcotest.(check int) "add wraps" 0 (Gfp.add (Gfp.p - 1) 1);
  Alcotest.(check int) "sub wraps" (Gfp.p - 1) (Gfp.sub 0 1);
  Alcotest.(check int) "neg" (Gfp.p - 5) (Gfp.neg 5);
  Alcotest.(check int) "neg zero" 0 (Gfp.neg 0);
  Alcotest.(check int) "of_int negative" (Gfp.p - 3) (Gfp.of_int (-3))

let test_gfp_inverse () =
  let st = rng () in
  for _ = 1 to 200 do
    let a = 1 + Random.State.full_int st (Gfp.p - 1) in
    Alcotest.(check int) "a * inv a = 1" 1 (Gfp.mul a (Gfp.inv a))
  done;
  Alcotest.check_raises "inv 0" Division_by_zero (fun () -> ignore (Gfp.inv 0))

let test_gfp_pow () =
  Alcotest.(check int) "a^0" 1 (Gfp.pow 12345 0);
  Alcotest.(check int) "a^1" 12345 (Gfp.pow 12345 1);
  Alcotest.(check int) "a^2" (Gfp.mul 12345 12345) (Gfp.pow 12345 2);
  (* Fermat: a^(p-1) = 1. *)
  Alcotest.(check int) "fermat" 1 (Gfp.pow 987654321 (Gfp.p - 1))

let test_gfp_of_int64 () =
  let x = Gfp.of_int64 Int64.max_int in
  Alcotest.(check bool) "in range" true (x >= 0 && x < Gfp.p);
  Alcotest.(check bool) "negative mapped" true
    (let y = Gfp.of_int64 (-42L) in
     y >= 0 && y < Gfp.p)

(* --- Poly --- *)

let test_poly_normalize () =
  Alcotest.(check int) "trailing zeros dropped" 1 (Poly.degree (Poly.of_coeffs [ 1; 2; 0; 0 ]));
  Alcotest.(check bool) "zero poly" true (Poly.is_zero (Poly.of_coeffs [ 0; 0 ]));
  Alcotest.(check int) "zero degree" (-1) (Poly.degree Poly.zero)

let test_poly_arith () =
  let a = Poly.of_coeffs [ 1; 2; 3 ] in
  let b = Poly.of_coeffs [ 5; 1 ] in
  Alcotest.(check bool) "add" true (Poly.equal (Poly.add a b) (Poly.of_coeffs [ 6; 3; 3 ]));
  Alcotest.(check bool) "sub roundtrip" true (Poly.equal (Poly.sub (Poly.add a b) b) a);
  (* (x+2)(x+3) = x^2 + 5x + 6 *)
  let prod = Poly.mul (Poly.of_coeffs [ 2; 1 ]) (Poly.of_coeffs [ 3; 1 ]) in
  Alcotest.(check bool) "mul" true (Poly.equal prod (Poly.of_coeffs [ 6; 5; 1 ]))

let test_poly_divmod () =
  let a = Poly.of_coeffs [ 7; 0; 2; 1 ] in
  let b = Poly.of_coeffs [ 1; 1 ] in
  let q, r = Poly.divmod a b in
  Alcotest.(check bool) "a = q*b + r" true (Poly.equal a (Poly.add (Poly.mul q b) r));
  Alcotest.(check bool) "deg r < deg b" true (Poly.degree r < Poly.degree b);
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Poly.divmod a Poly.zero))

let test_poly_eval_roots () =
  let f = Poly.from_roots [ 3; 17; 100000 ] in
  Alcotest.(check int) "degree" 3 (Poly.degree f);
  Alcotest.(check int) "root 3" 0 (Poly.eval f 3);
  Alcotest.(check int) "root 17" 0 (Poly.eval f 17);
  Alcotest.(check int) "root 100000" 0 (Poly.eval f 100000);
  Alcotest.(check bool) "non-root" true (Poly.eval f 4 <> 0);
  Alcotest.(check int) "monic" 1 (Poly.leading f)

let test_poly_gcd () =
  let a = Poly.from_roots [ 1; 2; 3 ] in
  let b = Poly.from_roots [ 2; 3; 4 ] in
  let g = Poly.gcd a b in
  Alcotest.(check bool) "gcd = (x-2)(x-3)" true (Poly.equal g (Poly.from_roots [ 2; 3 ]))

let test_poly_pow_mod () =
  let modulus = Poly.from_roots [ 5; 9 ] in
  (* x^(p) mod f should evaluate at root r to r^p = r (Fermat). *)
  let xp = Poly.pow_mod (Poly.of_coeffs [ 0; 1 ]) Gfp.p ~modulus in
  Alcotest.(check int) "at 5" 5 (Poly.eval xp 5);
  Alcotest.(check int) "at 9" 9 (Poly.eval xp 9)

let test_poly_roots_small () =
  let roots = [ 2; 7; 11; 500; 123456 ] in
  let f = Poly.from_roots roots in
  match Poly.roots ~rng:(rng ()) f with
  | None -> Alcotest.fail "expected roots"
  | Some rs -> Alcotest.(check (list int)) "all roots found" roots rs

let test_poly_roots_constant () =
  match Poly.roots ~rng:(rng ()) Poly.one with
  | Some [] -> ()
  | _ -> Alcotest.fail "constant poly has no roots"

let test_poly_roots_rejects_irreducible () =
  (* x^2 + 1 is irreducible over GF(p) when p = 3 mod 4 (2^31-1 is). *)
  let f = Poly.of_coeffs [ 1; 0; 1 ] in
  match Poly.roots ~rng:(rng ()) f with
  | None -> ()
  | Some _ -> Alcotest.fail "irreducible quadratic must be rejected"

let test_poly_roots_rejects_repeated () =
  (* (x-4)^2 has a repeated factor; reconciliation polynomials never do,
     so the signal is None. *)
  let f = Poly.mul (Poly.from_roots [ 4 ]) (Poly.from_roots [ 4 ]) in
  match Poly.roots ~rng:(rng ()) f with
  | None -> ()
  | Some _ -> Alcotest.fail "repeated root must be rejected"

let test_poly_roots_large_set () =
  let st = rng () in
  let roots =
    List.sort_uniq compare (List.init 60 (fun _ -> Random.State.int st 1000000))
  in
  let f = Poly.from_roots roots in
  match Poly.roots ~rng:st f with
  | None -> Alcotest.fail "expected roots"
  | Some rs -> Alcotest.(check (list int)) "all recovered" roots rs

(* --- The reference's linear solver --- *)

let test_linalg_identity () =
  let m = [| [| 1; 0 |]; [| 0; 1 |] |] in
  match Refs.solve m [| 5; 7 |] with
  | Some x -> Alcotest.(check (array int)) "solution" [| 5; 7 |] x
  | None -> Alcotest.fail "solvable"

let test_linalg_solves () =
  (* 2x + y = 12, x + y = 7  =>  x = 5, y = 2 *)
  let m = [| [| 2; 1 |]; [| 1; 1 |] |] in
  match Refs.solve m [| 12; 7 |] with
  | Some x ->
      Alcotest.(check int) "x" 5 x.(0);
      Alcotest.(check int) "y" 2 x.(1)
  | None -> Alcotest.fail "solvable"

let test_linalg_inconsistent () =
  let m = [| [| 1; 1 |]; [| 1; 1 |] |] in
  match Refs.solve m [| 1; 2 |] with
  | None -> ()
  | Some _ -> Alcotest.fail "inconsistent system must be rejected"

let test_linalg_underdetermined () =
  (* One equation, two unknowns: free var set to 0. *)
  let m = [| [| 1; 1 |] |] in
  match Refs.solve m [| 9 |] with
  | Some x -> Alcotest.(check int) "x + y" 9 (Gfp.add x.(0) x.(1))
  | None -> Alcotest.fail "solvable"

let test_linalg_does_not_mutate () =
  let m = [| [| 2; 1 |]; [| 1; 1 |] |] in
  let rhs = [| 12; 7 |] in
  ignore (Refs.solve m rhs);
  Alcotest.(check (array int)) "matrix untouched" [| 2; 1 |] m.(0);
  Alcotest.(check (array int)) "rhs untouched" [| 12; 7 |] rhs

(* --- Reconcile --- *)

let check_diff ~a ~b ~expect_ab ~expect_ba =
  match Reconcile.diff ~rng:(rng ()) ~a ~b () with
  | None -> Alcotest.fail "reconciliation failed"
  | Some r ->
      Alcotest.(check (list int)) "a - b" (List.sort compare expect_ab) r.Reconcile.a_minus_b;
      Alcotest.(check (list int)) "b - a" (List.sort compare expect_ba) r.Reconcile.b_minus_a

let test_reconcile_disjoint_small () =
  check_diff ~a:[| 1; 2; 3 |] ~b:[| 4; 5 |] ~expect_ab:[ 1; 2; 3 ] ~expect_ba:[ 4; 5 ]

let test_reconcile_identical () =
  check_diff ~a:[| 10; 20; 30 |] ~b:[| 30; 10; 20 |] ~expect_ab:[] ~expect_ba:[]

let test_reconcile_subset () =
  check_diff ~a:[| 1; 2; 3; 4; 5 |] ~b:[| 2; 4 |] ~expect_ab:[ 1; 3; 5 ] ~expect_ba:[];
  check_diff ~a:[| 2; 4 |] ~b:[| 1; 2; 3; 4; 5 |] ~expect_ab:[] ~expect_ba:[ 1; 3; 5 ]

let test_reconcile_empty_sides () =
  check_diff ~a:[||] ~b:[| 7; 8 |] ~expect_ab:[] ~expect_ba:[ 7; 8 ];
  check_diff ~a:[| 7 |] ~b:[||] ~expect_ab:[ 7 ] ~expect_ba:[];
  check_diff ~a:[||] ~b:[||] ~expect_ab:[] ~expect_ba:[]

let test_reconcile_large_overlap () =
  (* 500 shared elements, small difference: cost must stay proportional to
     the difference, not the sets. *)
  let st = rng () in
  let shared = Array.init 500 (fun i -> (i * 4099) + 17) in
  let only_a = [| 999983; 999979 |] in
  let only_b = [| 888887; 888873; 888811 |] in
  ignore st;
  let a = Array.append shared only_a in
  let b = Array.append shared only_b in
  (match Reconcile.diff ~rng:(rng ()) ~a ~b () with
  | None -> Alcotest.fail "reconciliation failed"
  | Some r ->
      Alcotest.(check (list int)) "a-b" (List.sort compare (Array.to_list only_a))
        r.Reconcile.a_minus_b;
      Alcotest.(check (list int)) "b-a" (List.sort compare (Array.to_list only_b))
        r.Reconcile.b_minus_a;
      Alcotest.(check bool) "communication sublinear" true (r.Reconcile.evals_used < 100))

let test_reconcile_with_bound_exact () =
  let a = [| 1; 2; 3; 50; 60 |] and b = [| 1; 2; 3; 70 |] in
  match Reconcile.diff_with_bound ~rng:(rng ()) ~bound:3 ~a ~b () with
  | None -> Alcotest.fail "bound 3 suffices"
  | Some r ->
      Alcotest.(check (list int)) "a-b" [ 50; 60 ] r.Reconcile.a_minus_b;
      Alcotest.(check (list int)) "b-a" [ 70 ] r.Reconcile.b_minus_a

let test_reconcile_bound_too_small () =
  (* 10 differing elements, bound 4: must be detected and refused. *)
  let a = Array.init 10 (fun i -> (i * 7919) + 1) in
  let b = [| 2 |] in
  match Reconcile.diff_with_bound ~rng:(rng ()) ~bound:4 ~a ~b () with
  | None -> ()
  | Some _ -> Alcotest.fail "undersized bound must fail verification"

let test_reconcile_doubling_recovers () =
  (* A balanced difference (|d| small) so the initial bound of 8 genuinely
     undershoots and the doubling loop must engage. *)
  let shared = Array.init 10 (fun i -> 500000 + i) in
  let a = Array.append shared (Array.init 20 (fun i -> (i * 104729) + 1)) in
  let b = Array.append shared (Array.init 18 (fun i -> (i * 999983) + 2)) in
  match Reconcile.diff ~rng:(rng ()) ~a ~b () with
  | None -> Alcotest.fail "doubling should reach the needed bound"
  | Some r ->
      Alcotest.(check int) "a-b size" 20 (List.length r.Reconcile.a_minus_b);
      Alcotest.(check int) "b-a size" 18 (List.length r.Reconcile.b_minus_a);
      Alcotest.(check bool) "took multiple attempts" true (r.Reconcile.attempts > 1)

let test_reconcile_universe_guard () =
  Alcotest.(check bool) "rejects out-of-universe" true
    (try
       ignore (Reconcile.diff ~a:[| Gfp.p - 1 |] ~b:[||] ());
       false
     with Invalid_argument _ -> true)

let test_element_of_fingerprint_range () =
  List.iter
    (fun fp ->
      let e = Reconcile.element_of_fingerprint fp in
      Alcotest.(check bool) "in universe" true (e >= 0 && e < Reconcile.universe_size))
    [ 0L; 1L; Int64.max_int; Int64.min_int; -1L; 0xdeadbeef12345678L ]

let test_char_evals () =
  let elements = [| 2; 5 |] in
  let points = [| 10; 11 |] in
  let evals = Reconcile.char_evals ~elements ~points in
  (* (10-2)(10-5) = 40; (11-2)(11-5) = 54 *)
  Alcotest.(check (array int)) "evals" [| 40; 54 |] evals

let prop_reconcile_random =
  QCheck.Test.make ~name:"reconcile random sets" ~count:30
    QCheck.(
      pair
        (list_of_size Gen.(int_range 0 25) (int_bound 1000000))
        (list_of_size Gen.(int_range 0 25) (int_bound 1000000)))
    (fun (la, lb) ->
      let a = Array.of_list (List.sort_uniq compare la) in
      let b = Array.of_list (List.sort_uniq compare lb) in
      let module S = Set.Make (Int) in
      let sa = S.of_list (Array.to_list a) and sb = S.of_list (Array.to_list b) in
      match Reconcile.diff ~rng:(rng ()) ~a ~b () with
      | None -> false
      | Some r ->
          r.Reconcile.a_minus_b = S.elements (S.diff sa sb)
          && r.Reconcile.b_minus_a = S.elements (S.diff sb sa))

(* The rational reconstruction against the Gaussian reference in Refs:
   the same result, or None, at every bound, and the same doubling.
   Bounds 1..80 against differences of 0..80 elements give under-bound,
   tight and loose attempts; half the cases lean the bound toward the
   difference so that tight ones occur often.  Half the one-sided
   differences are drawn from 0..12: root finding of degree 40 takes
   ~9 ms, and every success factors twice. *)
let reconcile_case =
  QCheck.make
    ~print:(fun (na, nb, ns, bound, seed) ->
      Printf.sprintf "|A\\B| = %d, |B\\A| = %d, shared %d, bound %d, seed %d" na nb ns bound seed)
    QCheck.Gen.(
      let size = oneof [ int_range 0 40; int_range 0 12 ] in
      let* na = size in
      let* nb = size in
      let* ns = int_range 0 20 in
      let* bound =
        oneof [ int_range 1 80; map (fun s -> max 1 (min 80 (na + nb + s))) (int_range (-2) 2) ]
      in
      let* seed = int_bound 1_000_000 in
      return (na, nb, ns, bound, seed))

let prop_reconcile_matches_reference =
  QCheck.Test.make ~name:"diff_with_bound and diff = Gaussian reference" ~count:200
    reconcile_case (fun (na, nb, ns, bound, seed) ->
      let st = Random.State.make [| seed |] in
      let elements = Hashtbl.create 128 in
      let rec fresh () =
        let e = Random.State.int st 1_000_000 in
        if Hashtbl.mem elements e then fresh () else (Hashtbl.add elements e (); e)
      in
      let shared = Array.init ns (fun _ -> fresh ()) in
      let a = Array.append shared (Array.init na (fun _ -> fresh ())) in
      let b = Array.append (Array.init nb (fun _ -> fresh ())) shared in
      Reconcile.diff_with_bound ~rng:(rng ()) ~bound ~a ~b ()
      = Refs.reconcile_with_bound ~bound ~a ~b
      && Reconcile.diff ~rng:(rng ()) ~a ~b () = Refs.reconcile_diff ~a ~b ())

(* --- Bloom --- *)

let test_bloom_membership () =
  let f = Bloom.create ~bits:4096 () in
  let members = List.init 100 (fun i -> Int64.of_int ((i * 37) + 5)) in
  List.iter (Bloom.add f) members;
  List.iter
    (fun fp -> Alcotest.(check bool) "no false negative" true (Bloom.mem f fp))
    members

let test_bloom_false_positive_rate () =
  let f = Bloom.create ~bits:8192 ~hashes:4 () in
  for i = 0 to 499 do
    Bloom.add f (Int64.of_int (i * 13))
  done;
  let fps = ref 0 in
  let probes = 5000 in
  for i = 0 to probes - 1 do
    if Bloom.mem f (Int64.of_int (1000000 + (i * 7))) then incr fps
  done;
  let rate = float_of_int !fps /. float_of_int probes in
  Alcotest.(check bool) (Printf.sprintf "fp rate %.4f < 0.15" rate) true (rate < 0.15)

let test_bloom_cardinality () =
  let f = Bloom.create ~bits:16384 ~hashes:4 () in
  for i = 0 to 299 do
    Bloom.add f (Int64.of_int (i * 101))
  done;
  let est = Bloom.cardinality_estimate f in
  Alcotest.(check bool)
    (Printf.sprintf "estimate %.1f near 300" est)
    true
    (Float.abs (est -. 300.0) < 30.0)

let test_bloom_symmetric_difference () =
  let fa = Bloom.create ~bits:16384 ~hashes:4 () in
  let fb = Bloom.create ~bits:16384 ~hashes:4 () in
  (* 200 shared, 30 only in A, 20 only in B. *)
  for i = 0 to 199 do
    Bloom.add fa (Int64.of_int i);
    Bloom.add fb (Int64.of_int i)
  done;
  for i = 0 to 29 do
    Bloom.add fa (Int64.of_int (10000 + i))
  done;
  for i = 0 to 19 do
    Bloom.add fb (Int64.of_int (20000 + i))
  done;
  let est = Bloom.symmetric_difference_estimate ~na:230 ~nb:220 fa fb in
  Alcotest.(check bool)
    (Printf.sprintf "estimate %.1f near 50" est)
    true
    (Float.abs (est -. 50.0) < 15.0)

let test_bloom_shape_mismatch () =
  let fa = Bloom.create ~bits:64 () and fb = Bloom.create ~bits:128 () in
  Alcotest.check_raises "shape" (Invalid_argument "Bloom.union_estimate: filters have different shapes")
    (fun () -> ignore (Bloom.union_estimate fa fb))

let test_bloom_invalid () =
  Alcotest.check_raises "bits" (Invalid_argument "Bloom.create: bits must be positive")
    (fun () -> ignore (Bloom.create ~bits:0 ()))

let () =
  Alcotest.run "setrecon"
    [ ( "gfp",
        [ Alcotest.test_case "basics" `Quick test_gfp_basics;
          Alcotest.test_case "inverse" `Quick test_gfp_inverse;
          Alcotest.test_case "pow" `Quick test_gfp_pow;
          Alcotest.test_case "of_int64" `Quick test_gfp_of_int64 ] );
      ( "poly",
        [ Alcotest.test_case "normalize" `Quick test_poly_normalize;
          Alcotest.test_case "arith" `Quick test_poly_arith;
          Alcotest.test_case "divmod" `Quick test_poly_divmod;
          Alcotest.test_case "eval/from_roots" `Quick test_poly_eval_roots;
          Alcotest.test_case "gcd" `Quick test_poly_gcd;
          Alcotest.test_case "pow_mod" `Quick test_poly_pow_mod;
          Alcotest.test_case "roots small" `Quick test_poly_roots_small;
          Alcotest.test_case "roots constant" `Quick test_poly_roots_constant;
          Alcotest.test_case "rejects irreducible" `Quick test_poly_roots_rejects_irreducible;
          Alcotest.test_case "rejects repeated" `Quick test_poly_roots_rejects_repeated;
          Alcotest.test_case "roots large" `Slow test_poly_roots_large_set ] );
      ( "linalg",
        [ Alcotest.test_case "identity" `Quick test_linalg_identity;
          Alcotest.test_case "solves" `Quick test_linalg_solves;
          Alcotest.test_case "inconsistent" `Quick test_linalg_inconsistent;
          Alcotest.test_case "underdetermined" `Quick test_linalg_underdetermined;
          Alcotest.test_case "no mutation" `Quick test_linalg_does_not_mutate ] );
      ( "reconcile",
        [ Alcotest.test_case "disjoint" `Quick test_reconcile_disjoint_small;
          Alcotest.test_case "identical" `Quick test_reconcile_identical;
          Alcotest.test_case "subset" `Quick test_reconcile_subset;
          Alcotest.test_case "empty sides" `Quick test_reconcile_empty_sides;
          Alcotest.test_case "large overlap" `Quick test_reconcile_large_overlap;
          Alcotest.test_case "explicit bound" `Quick test_reconcile_with_bound_exact;
          Alcotest.test_case "bound too small" `Quick test_reconcile_bound_too_small;
          Alcotest.test_case "doubling" `Quick test_reconcile_doubling_recovers;
          Alcotest.test_case "universe guard" `Quick test_reconcile_universe_guard;
          Alcotest.test_case "fingerprint mapping" `Quick test_element_of_fingerprint_range;
          Alcotest.test_case "char evals" `Quick test_char_evals;
          QCheck_alcotest.to_alcotest prop_reconcile_random;
          QCheck_alcotest.to_alcotest prop_reconcile_matches_reference ] );
      ( "bloom",
        [ Alcotest.test_case "membership" `Quick test_bloom_membership;
          Alcotest.test_case "false positives" `Quick test_bloom_false_positive_rate;
          Alcotest.test_case "cardinality" `Quick test_bloom_cardinality;
          Alcotest.test_case "symmetric difference" `Quick test_bloom_symmetric_difference;
          Alcotest.test_case "shape mismatch" `Quick test_bloom_shape_mismatch;
          Alcotest.test_case "invalid" `Quick test_bloom_invalid ] ) ]

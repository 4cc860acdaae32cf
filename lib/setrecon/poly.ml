type t = int array

let zero : t = [||]
let one : t = [| 1 |]
let is_zero a = Array.length a = 0

let normalize a =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do decr n done;
  if !n = Array.length a then a else Array.sub a 0 !n

let of_coeffs cs = normalize (Array.of_list (List.map Gfp.of_int cs))
let degree a = Array.length a - 1
let leading a = if is_zero a then 0 else a.(Array.length a - 1)
let equal a b = a = b

let add a b =
  let n = max (Array.length a) (Array.length b) in
  let c = Array.make n 0 in
  for i = 0 to n - 1 do
    let ai = if i < Array.length a then a.(i) else 0 in
    let bi = if i < Array.length b then b.(i) else 0 in
    c.(i) <- Gfp.add ai bi
  done;
  normalize c

let sub a b =
  let n = max (Array.length a) (Array.length b) in
  let c = Array.make n 0 in
  for i = 0 to n - 1 do
    let ai = if i < Array.length a then a.(i) else 0 in
    let bi = if i < Array.length b then b.(i) else 0 in
    c.(i) <- Gfp.sub ai bi
  done;
  normalize c

let scale k a =
  let k = Gfp.of_int k in
  if k = 0 then zero else normalize (Array.map (fun c -> Gfp.mul k c) a)

let mul a b =
  if is_zero a || is_zero b then zero
  else begin
    let c = Array.make (Array.length a + Array.length b - 1) 0 in
    Array.iteri
      (fun i ai ->
        if ai <> 0 then
          Array.iteri (fun j bj -> c.(i + j) <- Gfp.add c.(i + j) (Gfp.mul ai bj)) b)
      a;
    normalize c
  end

let divmod a b =
  if is_zero b then raise Division_by_zero;
  let db = degree b in
  let lb_inv = Gfp.inv (leading b) in
  let r = Array.copy a in
  let da = degree a in
  if da < db then (zero, normalize r)
  else begin
    let q = Array.make (da - db + 1) 0 in
    for i = da downto db do
      let coeff = Gfp.mul r.(i) lb_inv in
      if coeff <> 0 then begin
        q.(i - db) <- coeff;
        for j = 0 to db do
          r.(i - db + j) <- Gfp.sub r.(i - db + j) (Gfp.mul coeff b.(j))
        done
      end
    done;
    (normalize q, normalize r)
  end

let monic a = if is_zero a then zero else scale (Gfp.inv (leading a)) a

let rec gcd a b =
  if is_zero b then monic a
  else begin
    let _, r = divmod a b in
    gcd b r
  end

let eval a x =
  let acc = ref 0 in
  for i = Array.length a - 1 downto 0 do
    acc := Gfp.add (Gfp.mul !acc x) a.(i)
  done;
  !acc

let from_roots rs =
  List.fold_left (fun acc r -> mul acc [| Gfp.neg (Gfp.of_int r); 1 |]) one rs

let mod_ a m = snd (divmod a m)

let pow_mod b e ~modulus =
  if e < 0 then invalid_arg "Poly.pow_mod: negative exponent";
  let rec loop base e acc =
    if e = 0 then acc
    else begin
      let acc = if e land 1 = 1 then mod_ (mul acc base) modulus else acc in
      loop (mod_ (mul base base) modulus) (e lsr 1) acc
    end
  in
  loop (mod_ b modulus) e one

(* x^p mod f, then gcd(x^p - x, f): equals (monic) f iff f is a product of
   distinct linear factors. *)
let splits_into_distinct_linears f =
  let xp = pow_mod [| 0; 1 |] Gfp.p ~modulus:f in
  let g = gcd (sub xp [| 0; 1 |]) f in
  equal g (monic f)

let half = (Gfp.p - 1) / 2

let roots ?rng f =
  let rng = match rng with Some r -> r | None -> Random.State.make [| 0x5e7c |] in
  if is_zero f then None
  else if degree f = 0 then Some []
  else if not (splits_into_distinct_linears f) then None
  else begin
    (* Cantor–Zassenhaus splitting specialized to linear factors. *)
    let rec split f acc =
      match degree f with
      | 0 -> acc
      | 1 ->
          (* f = c1 x + c0, root = -c0/c1 *)
          Gfp.div (Gfp.neg f.(0)) f.(1) :: acc
      | _ ->
          let rec attempt tries =
            if tries > 200 then failwith "Poly.roots: splitting did not converge"
            else begin
              let a = Random.State.full_int rng (Gfp.p - 1) + 1 in
              (* h = (x + a)^((p-1)/2) mod f *)
              let h = pow_mod [| a; 1 |] half ~modulus:f in
              let g = gcd (sub h one) f in
              let dg = degree g in
              if dg > 0 && dg < degree f then (g, fst (divmod f g))
              else attempt (tries + 1)
            end
          in
          let g, rest = attempt 0 in
          split g (split rest acc)
    in
    Some (List.sort compare (split (monic f) []))
  end

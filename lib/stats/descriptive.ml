let check_nonempty name xs =
  if Array.length xs = 0 then invalid_arg (Printf.sprintf "Descriptive.%s: empty sample" name)

let mean xs =
  check_nonempty "mean" xs;
  Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let central_moment xs k =
  let m = mean xs in
  let n = float_of_int (Array.length xs) in
  Array.fold_left (fun acc x -> acc +. ((x -. m) ** float_of_int k)) 0.0 xs /. n

let variance xs =
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    let m = mean xs in
    Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs
    /. float_of_int (n - 1)
  end

let stddev xs = sqrt (variance xs)

let sorted_copy xs =
  let ys = Array.copy xs in
  Array.sort compare ys;
  ys

let median xs =
  check_nonempty "median" xs;
  let ys = sorted_copy xs in
  let n = Array.length ys in
  if n mod 2 = 1 then ys.(n / 2) else (ys.((n / 2) - 1) +. ys.(n / 2)) /. 2.0

let percentile xs p =
  check_nonempty "percentile" xs;
  if p < 0.0 || p > 100.0 then invalid_arg "Descriptive.percentile: p outside [0,100]";
  let ys = sorted_copy xs in
  let n = Array.length ys in
  if n = 1 then ys.(0)
  else begin
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    ys.(lo) +. (frac *. (ys.(hi) -. ys.(lo)))
  end

let min_max xs =
  check_nonempty "min_max" xs;
  Array.fold_left
    (fun (lo, hi) x -> (Float.min lo x, Float.max hi x))
    (xs.(0), xs.(0))
    xs

let skewness xs =
  if Array.length xs < 3 then 0.0
  else begin
    let m2 = central_moment xs 2 in
    if m2 <= 0.0 then 0.0 else central_moment xs 3 /. (m2 ** 1.5)
  end

let kurtosis_excess xs =
  if Array.length xs < 4 then 0.0
  else begin
    let m2 = central_moment xs 2 in
    if m2 <= 0.0 then 0.0 else (central_moment xs 4 /. (m2 *. m2)) -. 3.0
  end

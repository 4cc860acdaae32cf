type t = {
  lo : float;
  hi : float;
  bins : int array;
  mutable under : int;
  mutable over : int;
  width_per_bin : float;
}

let create ~lo ~hi ~bins =
  if bins <= 0 then invalid_arg "Histogram.create: bins must be positive";
  if hi <= lo then invalid_arg "Histogram.create: hi must exceed lo";
  { lo; hi; bins = Array.make bins 0; under = 0; over = 0;
    width_per_bin = (hi -. lo) /. float_of_int bins }

let add t x =
  if x < t.lo then t.under <- t.under + 1
  else if x >= t.hi then t.over <- t.over + 1
  else begin
    let i = int_of_float ((x -. t.lo) /. t.width_per_bin) in
    let i = min i (Array.length t.bins - 1) in
    t.bins.(i) <- t.bins.(i) + 1
  end

let count t = t.under + t.over + Array.fold_left ( + ) 0 t.bins
let bin_counts t = Array.copy t.bins
let underflow t = t.under
let overflow t = t.over

let bin_center t i = t.lo +. ((float_of_int i +. 0.5) *. t.width_per_bin)

let bar n max_count width =
  if max_count = 0 then ""
  else String.make (n * width / max_count) '#'

let render t =
  let width = 50 in
  let max_count = Array.fold_left max 1 t.bins in
  let buf = Buffer.create 1024 in
  Array.iteri
    (fun i n ->
      Buffer.add_string buf
        (Printf.sprintf "%10.1f |%-*s %d\n" (bin_center t i) width
           (bar n max_count width) n))
    t.bins;
  if t.under > 0 then Buffer.add_string buf (Printf.sprintf "  underflow: %d\n" t.under);
  if t.over > 0 then Buffer.add_string buf (Printf.sprintf "  overflow:  %d\n" t.over);
  Buffer.contents buf

let render_with_normal ?(width = 50) t ~mu ~sigma =
  let total = float_of_int (count t) in
  let max_count = Array.fold_left max 1 t.bins in
  let buf = Buffer.create 1024 in
  Array.iteri
    (fun i n ->
      let left = t.lo +. (float_of_int i *. t.width_per_bin) in
      let right = left +. t.width_per_bin in
      let expected =
        total *. (Erf.normal_cdf ~mu ~sigma right -. Erf.normal_cdf ~mu ~sigma left)
      in
      Buffer.add_string buf
        (Printf.sprintf "%10.1f |%-*s %5d  (normal fit %7.1f)\n" (bin_center t i)
           width (bar n max_count width) n expected))
    t.bins;
  Buffer.contents buf

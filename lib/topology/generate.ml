let ispish ?(seed = 7) ~n ~duplex_links ~max_degree () =
  if n < 2 then invalid_arg "Generate.ispish: need at least 2 nodes";
  if duplex_links < n - 1 then invalid_arg "Generate.ispish: too few links to connect";
  if 2 * duplex_links > n * max_degree then
    invalid_arg "Generate.ispish: degree cap makes link count infeasible";
  let st = Random.State.make [| seed; n; duplex_links |] in
  let g = Graph.create ~n in
  let deg = Array.make n 0 in
  (* linked.[a * n + b] mirrors [Graph.link g a b <> None]: the picks
     below test it for every candidate, ~600k times on Sprintlink. *)
  let linked = Bytes.make (n * n) '\000' in
  let added = ref 0 in
  let connect a b =
    Graph.add_duplex g a b;
    Bytes.set linked ((a * n) + b) '\001';
    Bytes.set linked ((b * n) + a) '\001';
    deg.(a) <- deg.(a) + 1;
    deg.(b) <- deg.(b) + 1;
    incr added
  in
  (* Preferential target selection among nodes [0, limit) excluding
     [self], respecting the degree cap and existing links. *)
  let pick_target self limit =
    let total = ref 0 in
    for v = 0 to limit - 1 do
      if v <> self && deg.(v) < max_degree && Bytes.get linked ((self * n) + v) = '\000' then
        total := !total + deg.(v) + 1
    done;
    if !total = 0 then None
    else begin
      let ticket = Random.State.int st !total in
      let acc = ref 0 in
      let chosen = ref None in
      (try
         for v = 0 to limit - 1 do
           if v <> self && deg.(v) < max_degree && Bytes.get linked ((self * n) + v) = '\000' then begin
             acc := !acc + deg.(v) + 1;
             if ticket < !acc then begin
               chosen := Some v;
               raise Exit
             end
           end
         done
       with Exit -> ());
      !chosen
    end
  in
  (* Growth phase: node i attaches to enough earlier nodes to spread the
     link budget evenly (fractional accumulator hits the target exactly). *)
  let budget = float_of_int duplex_links in
  let carry = ref 0.0 in
  for i = 1 to n - 1 do
    let share = budget /. float_of_int (n - 1) in
    carry := !carry +. share;
    let want = max 1 (int_of_float !carry) in
    carry := !carry -. float_of_int want;
    let attach = min want i in
    let made = ref 0 in
    while !made < attach && !added < duplex_links do
      match pick_target i i with
      | Some v ->
          connect i v;
          incr made
      | None -> made := attach (* saturated: stop trying *)
    done;
    (* Guarantee connectivity even when the preferential pick saturates. *)
    if deg.(i) = 0 then begin
      let v = Random.State.int st i in
      connect i v
    end
  done;
  (* Top-up phase: add remaining links between preferential pairs. *)
  let guard = ref 0 in
  while !added < duplex_links && !guard < duplex_links * 50 do
    incr guard;
    let a = Random.State.int st n in
    if deg.(a) < max_degree then begin
      match pick_target a n with Some b -> connect a b | None -> ()
    end
  done;
  if !added < duplex_links then
    invalid_arg "Generate.ispish: could not place all links under the degree cap";
  g

let sprintlink_like ?(seed = 315) () =
  ispish ~seed ~n:315 ~duplex_links:972 ~max_degree:45 ()

let ebone_like () = ispish ~seed:87 ~n:87 ~duplex_links:161 ~max_degree:11 ()

let waxman ?(seed = 11) ~n () =
  let alpha = 0.6 and beta = 0.35 in
  if n < 2 then invalid_arg "Generate.waxman: need at least 2 nodes";
  let st = Random.State.make [| seed; n; 0x3a |] in
  let xs = Array.init n (fun _ -> Random.State.float st 1.0) in
  let ys = Array.init n (fun _ -> Random.State.float st 1.0) in
  let g = Graph.create ~n in
  let dist i j = Float.hypot (xs.(i) -. xs.(j)) (ys.(i) -. ys.(j)) in
  (* Connectivity backbone: a random chain. *)
  let order = Array.init n Fun.id in
  Mrstats.Variate.shuffle st order;
  for i = 0 to n - 2 do
    Graph.add_duplex g order.(i) order.(i + 1)
  done;
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Graph.link g i j = None then begin
        let p = alpha *. exp (-.dist i j /. (beta *. sqrt 2.0)) in
        if Random.State.float st 1.0 < p then Graph.add_duplex g i j
      end
    done
  done;
  g

let line ~n =
  let g = Graph.create ~n in
  for i = 0 to n - 2 do
    Graph.add_duplex g i (i + 1)
  done;
  g

let ring ~n =
  if n < 3 then invalid_arg "Generate.ring: need at least 3 nodes";
  let g = line ~n in
  Graph.add_duplex g (n - 1) 0;
  g

let grid ~rows ~cols =
  if rows < 1 || cols < 1 then invalid_arg "Generate.grid: empty grid";
  let g = Graph.create ~n:(rows * cols) in
  let id r c = (r * cols) + c in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c + 1 < cols then Graph.add_duplex g (id r c) (id r (c + 1));
      if r + 1 < rows then Graph.add_duplex g (id r c) (id (r + 1) c)
    done
  done;
  g

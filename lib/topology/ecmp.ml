type t = {
  graph : Graph.t;
  dist_to : int array array; (* dist_to.(d).(v) = least cost v -> d *)
}

(* A 64-bit avalanche mixer (splitmix64 finalizer): deterministic,
   seedless, identical on every router. *)
let hash ~router ~dst ~flow =
  let z = Int64.of_int ((router * 0x9e3779b9) lxor (dst * 0x85ebca6b) lxor flow) in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.to_int (Int64.logand (Int64.logxor z (Int64.shift_right_logical z 31)) 0x3fffffffL)

let compute graph = { graph; dist_to = Dijkstra.distances_to_all (Graph.adjacency graph) }

let candidates t v ~dst =
  if v = dst then []
  else begin
    let dist = t.dist_to.(dst) in
    if dist.(v) = Dijkstra.unreachable then []
    else
      List.filter
        (fun w ->
          dist.(w) <> Dijkstra.unreachable
          && (Graph.link_exn t.graph v w).Graph.cost + dist.(w) = dist.(v))
        (Graph.out_neighbors t.graph v)
  end

let next_hop t v ~dst ~flow =
  match candidates t v ~dst with
  | [] -> None
  | cands ->
      let i = hash ~router:v ~dst ~flow mod List.length cands in
      Some (List.nth cands i)

let path t ~src ~dst ~flow =
  if src = dst then Some [ src ]
  else begin
    let rec follow v acc =
      if v = dst then Some (List.rev (v :: acc))
      else begin
        match next_hop t v ~dst ~flow with
        | None -> None
        | Some w -> follow w (v :: acc)
      end
    in
    follow src []
  end

let max_fanout t =
  let n = Graph.size t.graph in
  let best = ref 1 in
  for v = 0 to n - 1 do
    for d = 0 to n - 1 do
      if v <> d then best := max !best (List.length (candidates t v ~dst:d))
    done
  done;
  !best

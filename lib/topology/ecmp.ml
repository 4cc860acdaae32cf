type t = {
  n : int;
  (* The candidates of v toward d, ascending, are ids.(off.(r)) to
     ids.(off.(r + 1) - 1) for row r = d * n + v. *)
  off : int array;
  ids : int array;
}

(* A 64-bit avalanche mixer (splitmix64 finalizer): deterministic,
   seedless, identical on every router. *)
let hash ~router ~dst ~flow =
  let z = Int64.of_int ((router * 0x9e3779b9) lxor (dst * 0x85ebca6b) lxor flow) in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.to_int (Int64.logand (Int64.logxor z (Int64.shift_right_logical z 31)) 0x3fffffffL)

(* Every row from the one search's distances: the successors w of v,
   ascending, with cost (v, w) + dist (w) = dist (v). *)
let compute graph =
  let n = Graph.size graph in
  let a = Graph.adjacency graph in
  let off = Array.make ((n * n) + 1) 0 in
  let ids = ref (Array.make (max 16 (n * n)) 0) and used = ref 0 in
  Dijkstra.iter a (fun d ~dist ~next:_ ->
      for v = 0 to n - 1 do
        let dv = dist.(v) in
        if v <> d && dv <> Dijkstra.unreachable then begin
          let succ = a.Graph.succ.(v) and cost = a.Graph.succ_cost.(v) in
          if !used + Array.length succ > Array.length !ids then begin
            let bigger = Array.make (2 * (!used + Array.length succ)) 0 in
            Array.blit !ids 0 bigger 0 !used;
            ids := bigger
          end;
          for i = 0 to Array.length succ - 1 do
            let w = succ.(i) in
            if dist.(w) <> Dijkstra.unreachable && cost.(i) + dist.(w) = dv then begin
              !ids.(!used) <- w;
              incr used
            end
          done
        end;
        off.((d * n) + v + 1) <- !used
      done);
  { n; off; ids = Array.sub !ids 0 !used }

let row t v ~dst =
  if v < 0 || v >= t.n || dst < 0 || dst >= t.n then invalid_arg "Ecmp: bad node";
  (dst * t.n) + v

let candidates t v ~dst =
  let r = row t v ~dst in
  List.init (t.off.(r + 1) - t.off.(r)) (fun i -> t.ids.(t.off.(r) + i))

let next_hop_id t v ~dst ~flow =
  let r = row t v ~dst in
  let first = t.off.(r) in
  match t.off.(r + 1) - first with
  | 0 -> -1
  | 1 -> t.ids.(first)
  | c -> t.ids.(first + (hash ~router:v ~dst ~flow mod c))

let next_hop t v ~dst ~flow =
  let w = next_hop_id t v ~dst ~flow in
  if w < 0 then None else Some w

let path t ~src ~dst ~flow =
  if src = dst then Some [ src ]
  else begin
    let rec follow v acc =
      if v = dst then Some (List.rev (v :: acc))
      else begin
        let w = next_hop_id t v ~dst ~flow in
        if w < 0 then None else follow w (v :: acc)
      end
    in
    follow src []
  end

let max_fanout t =
  let best = ref 1 in
  for r = 0 to (t.n * t.n) - 1 do
    let c = t.off.(r + 1) - t.off.(r) in
    if c > !best then best := c
  done;
  !best

type t = {
  graph : Graph.t;
  (* dist_to.(d).(v) = least cost from v to d. *)
  dist_to : int array array;
  (* nh.(d).(v) = next hop from v towards d, -1 when none; precomputed
     so the per-packet forwarding lookup is two array reads with no
     list walk and no option allocation. *)
  nh : int array array;
}

(* Neighbors are in ascending order, so the first optimal one is the
   deterministic choice shared by all routers.  Top level, so the scan
   builds no closure per (destination, router) pair. *)
let rec first_optimal succ cost dist dv i =
  if i = Array.length succ then -1
  else
    let w = succ.(i) in
    if dist.(w) <> Dijkstra.unreachable && cost.(i) + dist.(w) = dv then w
    else first_optimal succ cost dist dv (i + 1)

let compute graph =
  let n = Graph.size graph in
  let adj = Graph.adjacency graph in
  let dist_to = Dijkstra.distances_to_all adj in
  let nh =
    Array.mapi
      (fun dst dist ->
        let row = Array.make n (-1) in
        for v = 0 to n - 1 do
          if v <> dst && dist.(v) <> Dijkstra.unreachable then
            row.(v) <- first_optimal adj.Graph.succ.(v) adj.Graph.succ_cost.(v) dist dist.(v) 0
        done;
        row)
      dist_to
  in
  { graph; dist_to; nh }

let graph t = t.graph

let next_hop_id t v ~dst =
  if v < 0
     || v >= Array.length t.nh
     || dst < 0
     || dst >= Array.length t.nh
  then invalid_arg "Routing.next_hop: bad node";
  t.nh.(dst).(v)

let next_hop t v ~dst =
  let w = next_hop_id t v ~dst in
  if w < 0 then None else Some w

let cost t src dst =
  let d = t.dist_to.(dst).(src) in
  if d = Dijkstra.unreachable then None else Some d

let path t ~src ~dst =
  if src = dst then Some [ src ]
  else begin
    let rec follow v acc =
      if v = dst then Some (List.rev (v :: acc))
      else begin
        match next_hop t v ~dst with
        | None -> None
        | Some w -> follow w (v :: acc)
      end
    in
    follow src []
  end

let path_delay t chain =
  let rec loop = function
    | a :: (b :: _ as rest) -> (Graph.link_exn t.graph a b).Graph.delay +. loop rest
    | [ _ ] | [] -> 0.0
  in
  loop chain

let all_routed_paths t =
  let n = Graph.size t.graph in
  let acc = ref [] in
  for src = n - 1 downto 0 do
    for dst = n - 1 downto 0 do
      if src <> dst then begin
        match path t ~src ~dst with
        | Some p -> acc := p :: !acc
        | None -> ()
      end
    done
  done;
  !acc

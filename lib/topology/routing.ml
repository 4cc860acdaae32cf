type t = {
  graph : Graph.t;
  (* The snapshot the tables were computed from: path costs are summed
     over its rows. *)
  adj : Graph.adjacency;
  (* nh.(d).(v) = next hop from v towards d, -1 when none; precomputed
     so the per-packet forwarding lookup is two array reads with no
     list walk and no option allocation. *)
  nh : int array array;
}

(* Each router's next hop comes out of the search itself: the
   lowest-id successor on a least-cost path, the deterministic choice
   shared by all routers. *)
let compute graph =
  let adj = Graph.adjacency graph in
  let nh = Array.make (Graph.size graph) [||] in
  Dijkstra.iter adj (fun dst ~dist:_ ~next -> nh.(dst) <- next);
  { graph; adj; nh }

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

(* The routed path is a least-cost path, so its cost is the least. *)
let cost t src dst =
  if src = dst then Some 0
  else begin
    let rec sum v acc =
      if v = dst then Some acc
      else begin
        let w = next_hop_id t v ~dst in
        if w < 0 then None
        else begin
          let succ = t.adj.Graph.succ.(v) in
          let i = ref 0 in
          while succ.(!i) <> w do
            incr i
          done;
          sum w (acc + t.adj.Graph.succ_cost.(v).(!i))
        end
      end
    in
    sum src 0
  end

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

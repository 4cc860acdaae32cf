let unreachable = max_int

(* Single-source Dijkstra over one orientation of a snapshot: [next.(u)]
   are the nodes one hop from [u], [cost.(u).(i)] the cost of that hop. *)
let run ~next ~cost ~src =
  let n = Array.length next in
  if src < 0 || src >= n then invalid_arg "Dijkstra.distances: bad source";
  let dist = Array.make n unreachable in
  let settled = Array.make n false in
  let heap = Prioq.create () in
  dist.(src) <- 0;
  Prioq.push heap ~priority:0.0 src;
  let rec drain () =
    match Prioq.pop heap with
    | None -> ()
    | Some (_, u) ->
        if not settled.(u) then begin
          settled.(u) <- true;
          let nu = next.(u) and cu = cost.(u) in
          for i = 0 to Array.length nu - 1 do
            let v = nu.(i) in
            let cand = dist.(u) + cu.(i) in
            if cand < dist.(v) then begin
              dist.(v) <- cand;
              Prioq.push heap ~priority:(float_of_int cand) v
            end
          done
        end;
        drain ()
  in
  drain ();
  dist

let distances (a : Graph.adjacency) ~src = run ~next:a.succ ~cost:a.succ_cost ~src

let distances_to (a : Graph.adjacency) ~dst =
  run ~next:a.pred ~cost:a.pred_cost ~src:dst

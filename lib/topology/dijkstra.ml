let unreachable = max_int

(* One backward search per destination, all on one two-int heap.  A node
   is pushed again only with a strictly lower cost, so an entry whose
   cost is not the node's distance is stale. *)
let distances_to_all (a : Graph.adjacency) =
  let n = Array.length a.pred in
  let heap = Minheap.create n in
  Array.init n (fun dst ->
      let dist = Array.make n unreachable in
      dist.(dst) <- 0;
      Minheap.push heap 0 dst;
      while not (Minheap.is_empty heap) do
        let du = Minheap.top_cost heap and u = Minheap.top_value heap in
        Minheap.pop heap;
        if du = dist.(u) then begin
          let pu = a.pred.(u) and cu = a.pred_cost.(u) in
          for i = 0 to Array.length pu - 1 do
            let v = pu.(i) in
            let cand = du + cu.(i) in
            if cand < dist.(v) then begin
              dist.(v) <- cand;
              Minheap.push heap cand v
            end
          done
        end
      done;
      dist)

let unreachable = max_int

(* One backward search per destination, all on one radix heap and one
   distance row, settled a level of equal distance at a time.  A node is
   pushed again only with a strictly lower cost, so an entry whose key
   is not the node's distance is stale.  When u settles, every
   predecessor v with cost (v, u) + dist (u) = dist (v) so far takes u
   as its next hop if u's id is lower: all of v's optimal successors are
   nearer, so they settle, and offer themselves, before v does. *)
let iter (a : Graph.adjacency) f =
  let n = Array.length a.pred in
  let heap = Radixheap.create n and dist = Array.make n unreachable in
  for dst = 0 to n - 1 do
    let nh = Array.make n (-1) in
    Array.fill dist 0 n unreachable;
    dist.(dst) <- 0;
    Radixheap.push heap 0 dst;
    let len = ref (Radixheap.next_level heap) in
    while !len > 0 do
      let du = Radixheap.last heap and level = Radixheap.level heap in
      for j = 0 to !len - 1 do
        let u = level.((2 * j) + 1) in
        if du = dist.(u) then begin
          let pu = a.pred.(u) and cu = a.pred_cost.(u) in
          for i = 0 to Array.length pu - 1 do
            let v = pu.(i) in
            let cand = du + cu.(i) and dv = dist.(v) in
            if cand < dv then begin
              dist.(v) <- cand;
              nh.(v) <- u;
              Radixheap.push heap cand v
            end
            else if cand = dv && u < nh.(v) then nh.(v) <- u
          done
        end
      done;
      len := Radixheap.next_level heap
    done;
    f dst ~dist ~next:nh
  done

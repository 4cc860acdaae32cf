module Ev = Prioq.Event

let unreachable = max_int

(* One backward search per destination, all on one event heap: the node
   rides in the operand and its cost in the time, so a push and a pop
   allocate nothing.  A node is pushed again only with a strictly lower
   cost, so an entry whose time is not the node's distance is stale. *)
let distances_to_all (a : Graph.adjacency) =
  let n = Array.length a.pred in
  let heap = Ev.create () and c = Ev.cursor () and at = { Ev.f = 0.0 } in
  let push v cost =
    at.f <- float_of_int cost;
    Ev.push_keyed heap ~at ~key:(Ev.reserve heap) ~tag:0 ~iarg:v Ev.nil Ev.nil
  in
  Array.init n (fun dst ->
      let dist = Array.make n unreachable in
      dist.(dst) <- 0;
      push dst 0;
      while Ev.pop heap ~until:infinity ~strict:false c do
        let u = c.iarg in
        let du = dist.(u) in
        if int_of_float c.time.f = du then begin
          let pu = a.pred.(u) and cu = a.pred_cost.(u) in
          for i = 0 to Array.length pu - 1 do
            let v = pu.(i) in
            let cand = du + cu.(i) in
            if cand < dist.(v) then begin
              dist.(v) <- cand;
              push v cand
            end
          done
        end
      done;
      dist)

module Keys = Hashtbl.Make (Int)

type t = {
  n : int;
  (* Snapshot of the topology. *)
  adj : Graph.adjacency;
  (* Directed links numbered from the successor rows: u -> succ.(u).(i)
     is link off.(u) + i, from link_src to link_dst.  pred_link.(v).(i)
     numbers the link pred.(v).(i) -> v. *)
  off : int array;
  link_src : int array;
  link_dst : int array;
  pred_link : int array array;
  (* The links of forbidden length-2 segments, by link id: no search
     enters one, so no path takes one. *)
  cut : bool array;
  (* Banned transitions u -> v -> w, keyed by (u * n + v) * n + w, and
     whether any has its middle at v: the searches test the flag first,
     so a router with no banned transition costs no table lookup. *)
  banned : unit Keys.t;
  via : bool array;
  (* dist_cache.(dst) lazily holds, at link u -> v, the least cost from
     u to dst whose first hop is that link (so v continues with previous
     hop u). *)
  dist_cache : int array option array;
  (* Every destination's search drains the one heap of (cost, link). *)
  heap : Radixheap.t;
}

let validate_segment g seg =
  let rec check = function
    | a :: (b :: _ as rest) ->
        if Graph.link g a b = None then
          invalid_arg
            (Printf.sprintf "Policy.compute: segment hop %d->%d is not a link" a b);
        check rest
    | [ _ ] | [] -> ()
  in
  if List.length seg < 2 then invalid_arg "Policy.compute: segment shorter than 2";
  check seg

let rec triples = function
  | a :: (b :: c :: _ as rest) -> (a, b, c) :: triples rest
  | _ -> []

let key n u v w = (((u * n) + v) * n) + w

(* The id of link a -> b, or -1 when there is none. *)
let link_id adj off a b =
  let succ = adj.Graph.succ.(a) in
  let rec find i =
    if i = Array.length succ then -1 else if succ.(i) = b then off.(a) + i else find (i + 1)
  in
  find 0

let compute g ~forbidden =
  List.iter (validate_segment g) forbidden;
  let n = Graph.size g in
  let adj = Graph.adjacency g in
  let off = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    off.(u + 1) <- off.(u) + Array.length adj.Graph.succ.(u)
  done;
  let link_src = Array.make off.(n) 0 and link_dst = Array.make off.(n) 0 in
  let pred_link = Array.map (fun p -> Array.make (Array.length p) 0) adj.Graph.pred in
  (* Pred rows are ascending and sources are visited in ascending order,
     so slot fill.(w) of pred_link.(w) numbers the link from
     pred.(w).(fill.(w)). *)
  let fill = Array.make n 0 in
  Array.iteri
    (fun u s ->
      Array.iteri
        (fun i w ->
          let l = off.(u) + i in
          link_src.(l) <- u;
          link_dst.(l) <- w;
          pred_link.(w).(fill.(w)) <- l;
          fill.(w) <- fill.(w) + 1)
        s)
    adj.Graph.succ;
  let cut = Array.make off.(n) false and banned = Keys.create 16 in
  let via = Array.make n false in
  List.iter
    (fun seg ->
      match seg with
      | [ a; b ] -> cut.(link_id adj off a b) <- true
      | _ ->
          List.iter
            (fun (u, v, w) ->
              Keys.replace banned (key n u v w) ();
              via.(v) <- true)
            (triples seg))
    forbidden;
  { n; adj; off; link_src; link_dst; pred_link; cut; banned; via;
    dist_cache = Array.make n None; heap = Radixheap.create n }

let infinity_cost = max_int

let is_banned t u v w = t.via.(v) && Keys.mem t.banned (key t.n u v w)

(* Backward Dijkstra over (prev, cur) states toward [dst]: a state is
   the id of link prev -> cur.  A state is pushed again only with a
   strictly lower cost, so an entry whose cost is not the state's
   distance is stale. *)
let state_distances t dst =
  match t.dist_cache.(dst) with
  | Some d -> d
  | None ->
      let pred = t.adj.Graph.pred and pred_cost = t.adj.Graph.pred_cost in
      let pred_link = t.pred_link in
      let dist = Array.make (Array.length t.link_src) infinity_cost in
      let relax state cand =
        if cand < dist.(state) && not t.cut.(state) then begin
          dist.(state) <- cand;
          Radixheap.push t.heap cand state
        end
      in
      (* Entry states: the last link into dst. *)
      let ld = pred_link.(dst) and cd = pred_cost.(dst) in
      for i = 0 to Array.length ld - 1 do
        relax ld.(i) cd.(i)
      done;
      let heap = t.heap in
      let len = ref (Radixheap.next_level heap) in
      while !len > 0 do
        let d = Radixheap.last heap and level = Radixheap.level heap in
        for j = 0 to !len - 1 do
          let state = level.((2 * j) + 1) in
          if d = dist.(state) then begin
            let v = t.link_src.(state) and w = t.link_dst.(state) in
            (* Prepend each link u -> v for which the transition
               u -> v -> w is allowed. *)
            let pv = pred.(v) and cv = pred_cost.(v) and lv = pred_link.(v) in
            for i = 0 to Array.length pv - 1 do
              if not (is_banned t pv.(i) v w) then relax lv.(i) (cv.(i) + d)
            done
          end
        done;
        len := Radixheap.next_level heap
      done;
      t.dist_cache.(dst) <- Some dist;
      dist

let next_hop_id t ~prev ~cur ~dst =
  let n = t.n in
  if cur < 0 || cur >= n || dst < 0 || dst >= n || prev < -1 || prev >= n then
    invalid_arg "Policy.next_hop: bad node";
  if cur = dst then -1
  else begin
    let dist = state_distances t dst in
    let succ = t.adj.Graph.succ.(cur) and first = t.off.(cur) in
    (* The first minimum in ascending neighbour order. *)
    let best = ref (-1) and best_cost = ref infinity_cost in
    for i = 0 to Array.length succ - 1 do
      let w = succ.(i) in
      let c = dist.(first + i) in
      if c < !best_cost && not (prev >= 0 && is_banned t prev cur w) then begin
        best := w;
        best_cost := c
      end
    done;
    !best
  end

let next_hop t ~prev ~cur ~dst =
  let prev =
    match prev with
    | None -> -1
    | Some p when p < 0 -> invalid_arg "Policy.next_hop: bad node"
    | Some p -> p
  in
  let w = next_hop_id t ~prev ~cur ~dst in
  if w < 0 then None else Some w

let path t ~src ~dst =
  if src = dst then Some [ src ]
  else begin
    let rec follow prev cur acc =
      if cur = dst then Some (List.rev (cur :: acc))
      else begin
        let w = next_hop_id t ~prev ~cur ~dst in
        if w < 0 then None else follow cur w (cur :: acc)
      end
    in
    follow (-1) src []
  end

let forbidden_transitions t =
  let n = t.n in
  Keys.fold (fun k () acc -> (k / (n * n), (k / n) mod n, k mod n) :: acc) t.banned []
  |> List.sort compare

let is_forbidden_path t chain =
  let rec bad_link = function
    | a :: (b :: _ as rest) ->
        a < 0 || a >= t.n
        || (let l = link_id t.adj t.off a b in
            l < 0 || t.cut.(l))
        || bad_link rest
    | [ _ ] | [] -> false
  in
  bad_link chain
  || List.exists (fun (u, v, w) -> is_banned t u v w) (triples chain)

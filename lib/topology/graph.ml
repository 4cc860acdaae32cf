type node = int

type link = { src : node; dst : node; cost : int; bw : float; delay : float }

type t = { n : int; adj : (node, link) Hashtbl.t array }

(* Unseeded tables: [links] lists in their iteration order, which must
   not depend on OCAMLRUNPARAM=R. *)
let create ~n =
  if n < 0 then invalid_arg "Graph.create: negative size";
  { n; adj = Array.init n (fun _ -> Hashtbl.create ~random:false 4) }

let size t = t.n

let check_node t v name =
  if v < 0 || v >= t.n then
    invalid_arg (Printf.sprintf "Graph.%s: node %d outside [0,%d)" name v t.n)

let add_link t ?(cost = 1) ?(bw = 1.25e6) ?(delay = 0.001) src dst =
  check_node t src "add_link";
  check_node t dst "add_link";
  if src = dst then invalid_arg "Graph.add_link: self-loop";
  if cost <= 0 then invalid_arg "Graph.add_link: cost must be positive";
  Hashtbl.replace t.adj.(src) dst { src; dst; cost; bw; delay }

let add_duplex t ?cost ?bw ?delay a b =
  add_link t ?cost ?bw ?delay a b;
  add_link t ?cost ?bw ?delay b a

let link t src dst =
  if src < 0 || src >= t.n then None else Hashtbl.find_opt t.adj.(src) dst

let link_exn t src dst =
  match link t src dst with Some l -> l | None -> raise Not_found

let out_neighbors t v =
  check_node t v "out_neighbors";
  Hashtbl.fold (fun dst _ acc -> dst :: acc) t.adj.(v) [] |> List.sort compare

type adjacency = {
  succ : node array array;
  succ_cost : int array array;
  pred : node array array;
  pred_cost : int array array;
}

let by_dst (a : link) (b : link) = Int.compare a.dst b.dst

let adjacency t =
  let rows =
    Array.map
      (fun h ->
        let a = Array.of_list (Hashtbl.fold (fun _ l acc -> l :: acc) h []) in
        Array.stable_sort by_dst a;
        a)
      t.adj
  in
  let succ = Array.map (Array.map (fun l -> l.dst)) rows in
  let succ_cost = Array.map (Array.map (fun l -> l.cost)) rows in
  let indeg = Array.make t.n 0 in
  Array.iter (Array.iter (fun w -> indeg.(w) <- indeg.(w) + 1)) succ;
  let pred = Array.map (fun d -> Array.make d 0) indeg in
  let pred_cost = Array.map (fun d -> Array.make d 0) indeg in
  let fill = Array.make t.n 0 in
  (* Sources are visited in ascending order, so each pred row fills
     ascending too. *)
  Array.iteri
    (fun u s ->
      Array.iteri
        (fun i w ->
          pred.(w).(fill.(w)) <- u;
          pred_cost.(w).(fill.(w)) <- succ_cost.(u).(i);
          fill.(w) <- fill.(w) + 1)
        s)
    succ;
  { succ; succ_cost; pred; pred_cost }

let links t =
  Array.to_list t.adj
  |> List.concat_map (fun h -> Hashtbl.fold (fun _ l acc -> l :: acc) h [])

let link_count t = Array.fold_left (fun acc h -> acc + Hashtbl.length h) 0 t.adj

let duplex_link_count t =
  let count = ref 0 in
  Array.iteri
    (fun src h ->
      Hashtbl.iter (fun dst _ -> if src < dst && link t dst src <> None then incr count) h)
    t.adj;
  !count

let out_degree t v =
  check_node t v "out_degree";
  Hashtbl.length t.adj.(v)

let degrees t = Array.map Hashtbl.length t.adj

let is_connected t =
  let reaches_all rows =
    let seen = Array.make t.n false in
    let rec visit v =
      if not seen.(v) then begin
        seen.(v) <- true;
        Array.iter visit rows.(v)
      end
    in
    visit 0;
    Array.for_all Fun.id seen
  in
  t.n <= 1
  ||
  let a = adjacency t in
  reaches_all a.succ && reaches_all a.pred

let copy t = { n = t.n; adj = Array.map Hashtbl.copy t.adj }

let remove_link t src dst =
  check_node t src "remove_link";
  Hashtbl.remove t.adj.(src) dst

let fold_links t ~init ~f = List.fold_left f init (links t)

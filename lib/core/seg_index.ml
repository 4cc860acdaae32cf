module Links = Hashtbl.Make (Int)

type route = { hops : int array; opens : int array; closes : int array }

type 'st t = {
  n : int;
  segments : Topology.Graph.node list array;
  states : 'st array;
  (* Segment -> its number; consulted only when a route is filled. *)
  number : (Topology.Graph.node list, int) Hashtbl.t;
  (* Directed link u -> v, keyed u * n + v -> numbers of the segments
     having it as an edge. *)
  links : int list Links.t;
  (* routes.(src * n + dst), [None] until first used in this routing
     generation. *)
  routes : route option array;
  mutable predict : src:int -> dst:int -> Topology.Graph.node list option;
}

let create ~rt make =
  let n = Topology.Graph.size (Topology.Routing.graph rt) in
  (* Filled in family order (the family is duplicate-free), this table's
     iteration order numbers the segments: the order the deployments
     have always judged them in. *)
  let number = Hashtbl.create 256 in
  List.iter
    (fun seg -> Hashtbl.add number seg (-1))
    (Topology.Segments.pik2_family rt ~k:1);
  let segments = Array.make (Hashtbl.length number) [] in
  let next = ref 0 in
  Hashtbl.iter
    (fun seg _ ->
      segments.(!next) <- seg;
      incr next)
    number;
  (* [replace] rebinds in place, so the iteration order is unchanged. *)
  Array.iteri (fun i seg -> Hashtbl.replace number seg i) segments;
  let links = Links.create 256 in
  let add_link a b i =
    let key = (a * n) + b in
    Links.replace links key (i :: Option.value (Links.find_opt links key) ~default:[])
  in
  Array.iteri
    (fun i seg ->
      match seg with
      | [ a; m; b ] ->
          add_link a m i;
          add_link m b i
      | _ -> ())
    segments;
  { n; segments; states = Array.map (fun _ -> make ()) segments; number; links;
    routes = Array.make (n * n) None;
    predict = (fun ~src ~dst -> Topology.Routing.path rt ~src ~dst) }

let states t = t.states
let segments t = t.segments

let fill t ~src ~dst =
  let hops =
    match t.predict ~src ~dst with Some p -> Array.of_list p | None -> [||]
  in
  let len = Array.length hops in
  let number a b c =
    Option.value (Hashtbl.find_opt t.number [ a; b; c ]) ~default:(-1)
  in
  let links = max 0 (len - 1) in
  { hops;
    opens =
      Array.init links (fun i ->
          if i + 2 < len then number hops.(i) hops.(i + 1) hops.(i + 2) else -1);
    closes =
      Array.init links (fun i ->
          if i >= 1 then number hops.(i - 1) hops.(i) hops.(i + 1) else -1) }

let route t ~src ~dst =
  match t.routes.((src * t.n) + dst) with
  | Some r -> r
  | None ->
      let r = fill t ~src ~dst in
      t.routes.((src * t.n) + dst) <- Some r;
      r

(* Top level, so the per-hop scan builds no closure. *)
let rec scan hops u v i =
  if i + 1 >= Array.length hops then -1
  else if hops.(i) = u && hops.(i + 1) = v then i
  else scan hops u v (i + 1)

let position r ~u ~v = scan r.hops u v 0
let opens r i = if i < 0 then -1 else r.opens.(i)
let closes r i = if i < 0 then -1 else r.closes.(i)

let reroute t pol =
  t.predict <- (fun ~src ~dst -> Topology.Policy.path pol ~src ~dst);
  Array.fill t.routes 0 (Array.length t.routes) None

let iter_link t ~src ~dst f =
  match Links.find_opt t.links ((src * t.n) + dst) with
  | Some segs -> List.iter (fun i -> f t.states.(i)) segs
  | None -> ()

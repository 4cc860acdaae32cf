type segment = Graph.node list

let windows xs x =
  if x <= 0 then invalid_arg "Segments.windows: non-positive width";
  let arr = Array.of_list xs in
  let n = Array.length arr in
  if n < x then []
  else List.init (n - x + 1) (fun i -> Array.to_list (Array.sub arr i x))

(* Segments are interned into a hash table keyed by the chain itself to
   count each distinct segment once even though it occurs on many routed
   paths.  The table is unseeded: the family comes out in its iteration
   order, which must not depend on OCAMLRUNPARAM=R. *)
let distinct segs =
  let tbl = Hashtbl.create ~random:false 4096 in
  List.iter (fun s -> if not (Hashtbl.mem tbl s) then Hashtbl.add tbl s ()) segs;
  tbl

let pi2_raw_segments rt ~k =
  if k < 1 then invalid_arg "Segments.pi2_family: k must be >= 1";
  let x = k + 2 in
  List.concat_map
    (fun p ->
      let len = List.length p in
      if len >= x then windows p x
      else if len >= 3 then [ p ] (* whole short path: both ends terminal *)
      else [])
    (Routing.all_routed_paths rt)

let keys tbl = Hashtbl.fold (fun s () acc -> s :: acc) tbl []

let pi2_family rt ~k = keys (distinct (pi2_raw_segments rt ~k))

module Seen = Hashtbl.Make (Int)

(* Every x-window, 3 <= x <= k+2, of every routed path — src-major, then
   dst, then width, then offset: the order [windows] would list them in.
   Each path is walked hop by hop into one reusable buffer, and a window
   is deduplicated on an integer hash of (x, its routers) with the
   colliding windows compared in place, so only a window's first
   occurrence builds its list.  Inserting those first occurrences into
   the same [distinct] table, in the same order, leaves that table — and
   so the returned list — exactly as listing every window would. *)
let pik2_family rt ~k =
  if k < 1 then invalid_arg "Segments.pik2_family: k must be >= 1";
  let n = Graph.size (Routing.graph rt) in
  let path = Array.make n 0 in
  let distinct = Hashtbl.create ~random:false 4096 in
  let seen = Seen.create (16 * n) in
  (* Whether a chain is the window path.(i) .. path.(stop - 1). *)
  let rec same i stop = function
    | [] -> i = stop
    | r :: rest -> i < stop && r = path.(i) && same (i + 1) stop rest
  in
  let rec known i stop = function
    | [] -> false
    | seg :: rest -> same i stop seg || known i stop rest
  in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst then begin
        (* A routed path visits each router at most once. *)
        path.(0) <- src;
        let len = ref 1 in
        while !len > 0 && path.(!len - 1) <> dst do
          let w = Routing.next_hop_id rt path.(!len - 1) ~dst in
          if w < 0 then len := 0
          else if !len = n then failwith "Segments.pik2_family: routing loop"
          else begin
            path.(!len) <- w;
            incr len
          end
        done;
        for x = 3 to k + 2 do
          for i = 0 to !len - x do
            let h = ref x in
            for j = i to i + x - 1 do
              h := (!h * 1_000_003) + path.(j)
            done;
            let bucket = try Seen.find seen !h with Not_found -> [] in
            if not (known i (i + x) bucket) then begin
              let seg = Array.to_list (Array.sub path i x) in
              Seen.replace seen !h (seg :: bucket);
              Hashtbl.add distinct seg ()
            end
          done
        done
      end
    done
  done;
  keys distinct

let group_by_router ~n ~members family =
  let pr = Array.make n [] in
  List.iter
    (fun seg -> List.iter (fun r -> pr.(r) <- seg :: pr.(r)) (members seg))
    family;
  pr

let pi2_pr rt ~k =
  let n = Graph.size (Routing.graph rt) in
  group_by_router ~n ~members:Fun.id (pi2_family rt ~k)

let ends seg =
  match seg with
  | [] | [ _ ] -> []
  | first :: rest ->
      let last = List.nth rest (List.length rest - 1) in
      if first = last then [ first ] else [ first; last ]

let pik2_pr rt ~k =
  let n = Graph.size (Routing.graph rt) in
  group_by_router ~n ~members:ends (pik2_family rt ~k)

let pr_stats pr =
  let counts = Array.map (fun segs -> float_of_int (List.length segs)) pr in
  if Array.length counts = 0 then (0.0, 0.0, 0.0)
  else begin
    let _, max_v = Mrstats.Descriptive.min_max counts in
    (max_v, Mrstats.Descriptive.mean counts, Mrstats.Descriptive.median counts)
  end

type segment = Graph.node list

let windows xs x =
  if x <= 0 then invalid_arg "Segments.windows: non-positive width";
  let arr = Array.of_list xs in
  let n = Array.length arr in
  if n < x then []
  else List.init (n - x + 1) (fun i -> Array.to_list (Array.sub arr i x))

module Seen = Hashtbl.Make (Int)

(* The one enumeration behind both families: every routed path, src-major
   then dst, is walked hop by hop into one reusable buffer, and [widths]
   gives the range of window widths to keep of a path of that many
   routers (a segment has at least 3); each is taken offset by offset.  A window is deduplicated on an integer
   hash of (width, its routers) with the colliding windows compared in
   place, so only a window's first occurrence builds its list, and the
   family comes out in first-occurrence order. *)
let walk rt ~widths =
  let n = Graph.size (Routing.graph rt) in
  let path = Array.make n 0 in
  let seen = Seen.create (16 * n) in
  let family = ref [] in
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
          else if !len = n then failwith "Segments: routing loop"
          else begin
            path.(!len) <- w;
            incr len
          end
        done;
        let lo, hi = widths !len in
        for x = max 3 lo to hi do
          for i = 0 to !len - x do
            let h = ref x in
            for j = i to i + x - 1 do
              h := (!h * 1_000_003) + path.(j)
            done;
            let bucket = try Seen.find seen !h with Not_found -> [] in
            if not (known i (i + x) bucket) then begin
              let seg = Array.to_list (Array.sub path i x) in
              Seen.replace seen !h (seg :: bucket);
              family := seg :: !family
            end
          done
        done
      end
    done
  done;
  List.rev !family

let pi2_family rt ~k =
  if k < 1 then invalid_arg "Segments.pi2_family: k must be >= 1";
  (* A path shorter than k+2 routers is monitored whole: both ends
     terminal. *)
  walk rt ~widths:(fun len -> (min len (k + 2), min len (k + 2)))

let pik2_family rt ~k =
  if k < 1 then invalid_arg "Segments.pik2_family: k must be >= 1";
  walk rt ~widths:(fun _ -> (3, k + 2))

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

let banner title =
  let rule = String.make (String.length title) '=' in
  Printf.printf "\n%s\n%s\n" title rule

let row cells =
  print_endline (String.concat " " (List.map (Printf.sprintf "%12s") cells))

let kv key value = Printf.printf "  %-34s %s\n" (key ^ ":") value

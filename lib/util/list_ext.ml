let rec take n = function
  | [] -> []
  | x :: rest -> if n <= 0 then [] else x :: take (n - 1) rest

let rec drop n = function
  | [] -> []
  | _ :: rest as xs -> if n <= 0 then xs else drop (n - 1) rest

let dedup_keep_order eq xs =
  let rec go seen = function
    | [] -> []
    | x :: rest ->
      if List.exists (eq x) seen then go seen rest
      else x :: go (x :: seen) rest
  in
  go [] xs

let sum_by f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

let sum_by_f f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs

let max_by f = function
  | [] -> None
  | x :: rest ->
    let best =
      List.fold_left (fun best y -> if f y > f best then y else best) x rest
    in
    Some best

let min_by f xs = max_by (fun x -> -.f x) xs

let pairs xs =
  let rec go = function
    | [] -> []
    | x :: rest -> List.map (fun y -> (x, y)) rest @ go rest
  in
  go xs

let group_by key xs =
  let rec add_to_groups groups x =
    let k = key x in
    match groups with
    | [] -> [ (k, [ x ]) ]
    | (k', members) :: rest ->
      if k = k' then (k', x :: members) :: rest
      else (k', members) :: add_to_groups rest x
  in
  List.fold_left add_to_groups [] xs
  |> List.map (fun (k, members) -> (k, List.rev members))

let index_of p xs =
  let rec go i = function
    | [] -> None
    | x :: rest -> if p x then Some i else go (i + 1) rest
  in
  go 0 xs

let replace_assoc k v bindings =
  if List.mem_assoc k bindings then
    List.map (fun (k', v') -> if k' = k then (k, v) else (k', v')) bindings
  else bindings @ [ (k, v) ]

let average = function
  | [] -> 0.
  | xs -> sum_by_f Fun.id xs /. float_of_int (List.length xs)

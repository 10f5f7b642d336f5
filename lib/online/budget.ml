let min_clusters = 4
let max_clusters = 64
let initial = 16
let grow_above = 0.05
let shrink_below = 0.01

type t = { mutable current : int }

let create () = { current = initial }

let current t = t.current

let clamp n = max min_clusters (min n max_clusters)

let record t ~benefit =
  if benefit >= grow_above then t.current <- clamp (t.current * 2)
  else if benefit < shrink_below then t.current <- clamp (t.current / 2)

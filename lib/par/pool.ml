type t = unit

let default () = ()

let hardware_default () = max 0 (Domain.recommended_domain_count () - 1)

let default_domains () =
  match Sys.getenv_opt "IM_DOMAINS" with
  | Some s ->
    (match int_of_string_opt (String.trim s) with
     | Some n when n >= 0 -> n
     | Some _ | None -> hardware_default ())
  | None -> hardware_default ()

(* Substring search and number extraction for the text the server prints. *)

let find ?(from = 0) hay needle =
  let n = String.length hay and m = String.length needle in
  let rec go i =
    if i + m > n then None
    else if String.sub hay i m = needle then Some i
    else go (i + 1)
  in
  go from

(* The integer right after the first [marker] in [text]. *)
let int_after text marker =
  match find text marker with
  | None -> None
  | Some i ->
      let start = i + String.length marker in
      let stop = ref start in
      while
        !stop < String.length text && text.[!stop] >= '0' && text.[!stop] <= '9'
      do
        incr stop
      done;
      int_of_string_opt (String.sub text start (!stop - start))

let configure ?(prod = 0) ?(listed = 0) ?(unlisted = 0) () = prod + listed + unlisted

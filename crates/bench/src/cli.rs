//! Strict argument checking for the `chaos` binary: an argument it does
//! not know is an error, not a no-op, so a stale flag in a script cannot
//! keep "passing" unnoticed.

/// Checks that every argument is one of `flags` (standalone) or one of
/// `options` (consumes the following argument as its value).
///
/// # Errors
///
/// Names the offending argument and lists the accepted ones.
pub fn check_args<S: AsRef<str>>(
    args: &[S],
    flags: &[&str],
    options: &[&str],
) -> Result<(), String> {
    let mut it = args.iter().map(AsRef::as_ref);
    while let Some(arg) = it.next() {
        if options.contains(&arg) {
            if it.next().is_none() {
                return Err(format!("{arg} takes a value"));
            }
        } else if !flags.contains(&arg) {
            let valid: Vec<String> = flags
                .iter()
                .map(|f| f.to_string())
                .chain(options.iter().map(|o| format!("{o} VALUE")))
                .collect();
            return Err(format!("unrecognised argument `{arg}` (valid: {})", valid.join(", ")));
        }
    }
    Ok(())
}

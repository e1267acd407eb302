//! The one command-line parser of `repro` and `bench`: the flags a
//! binary knows, then positionals consumed in order. Anything it cannot
//! account for is an error, which both binaries answer with their usage
//! text and exit status 2 before running anything.

use std::str::FromStr;

/// The arguments after the sub-command name.
#[derive(Debug)]
pub struct Args {
    flags: Vec<String>,
    positionals: std::vec::IntoIter<String>,
}

impl Args {
    /// Split `argv` into flags (anything starting with `-`) and
    /// positionals. A flag outside `known` is an error.
    pub fn parse(argv: impl Iterator<Item = String>, known: &[&str]) -> Result<Args, String> {
        let (flags, positionals): (Vec<String>, Vec<String>) =
            argv.partition(|a| a.starts_with('-'));
        if let Some(unknown) = flags.iter().find(|f| !known.contains(&f.as_str())) {
            return Err(format!("unknown flag `{unknown}`"));
        }
        Ok(Args {
            flags,
            positionals: positionals.into_iter(),
        })
    }

    /// Whether `flag` was given.
    #[must_use]
    pub fn flag(&self, flag: &str) -> bool {
        self.flags.iter().any(|f| f == flag)
    }

    /// The next positional parsed as `T`, or `default` when there is
    /// none left. One that does not parse is an error naming `what`.
    pub fn positional<T: FromStr>(&mut self, what: &str, default: T) -> Result<T, String> {
        match self.positionals.next() {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("`{raw}` is not a valid {what}")),
        }
    }

    /// Every positional must have been consumed by now.
    pub fn finish(&mut self) -> Result<(), String> {
        match self.positionals.next() {
            None => Ok(()),
            Some(extra) => Err(format!("unexpected argument `{extra}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str], known: &[&str]) -> Result<Args, String> {
        Args::parse(argv.iter().map(|s| (*s).to_owned()), known)
    }

    #[test]
    fn flags_and_positionals_are_told_apart_wherever_they_stand() {
        for argv in [["--quick", "out.json"], ["out.json", "--quick"]] {
            let mut args = parse(&argv, &["--quick"]).unwrap();
            assert!(args.flag("--quick"));
            let path: String = args
                .positional("output path", "default.json".into())
                .unwrap();
            assert_eq!(path, "out.json");
            args.finish().unwrap();
        }
    }

    #[test]
    fn absent_positionals_take_their_defaults() {
        let mut args = parse(&[], &["--quick"]).unwrap();
        assert!(!args.flag("--quick"));
        assert_eq!(args.positional("trial count", 400usize), Ok(400));
        assert_eq!(args.finish(), Ok(()));
    }

    #[test]
    fn an_unknown_flag_is_an_error() {
        let err = parse(&["--quik", "out.json"], &["--quick"]).unwrap_err();
        assert!(err.contains("--quik"), "{err}");
        assert!(parse(&["--quick"], &[]).is_err());
        assert!(parse(&["-q"], &["--quick"]).is_err());
    }

    #[test]
    fn an_unparsable_number_is_an_error_naming_the_argument() {
        let mut args = parse(&["fourty"], &[]).unwrap();
        let err = args.positional("trial count", 400usize).unwrap_err();
        assert!(
            err.contains("fourty") && err.contains("trial count"),
            "{err}"
        );
    }

    #[test]
    fn a_surplus_positional_is_an_error() {
        let mut args = parse(&["out.json", "extra"], &[]).unwrap();
        let _: String = args.positional("output path", String::new()).unwrap();
        let err = args.finish().unwrap_err();
        assert!(err.contains("extra"), "{err}");
    }
}

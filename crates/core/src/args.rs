//! The one command-line parser of `mms-ctl`, `repro` and `bench`.
//!
//! A command declares its flags as one list, written as the usage
//! shows it: each `--flag`, followed by a placeholder word when it
//! takes a value (`--disks N --quick --fail DISK@CYCLE`). [`Args`]
//! checks a command line against that list before anything runs, and
//! [`synopsis`] renders the same list for the usage text. The rules:
//!
//! * positionals come first, then the listed flags; a word starting
//!   with `-` is a flag;
//! * a flag that takes a value takes the next word, unless that word is
//!   itself a `--flag`;
//! * a flag whose placeholder ends in `@CYCLE` may repeat; any other
//!   flag may be given once;
//! * anything else — an unknown flag, a word after the flags — is an
//!   error naming it.

use std::fmt::Debug;
use std::ops::Bound::{Excluded, Included, Unbounded};
use std::ops::RangeBounds;
use std::str::FromStr;

/// A command line checked against one flag list: its positionals, to
/// be consumed in order, and the flags it gave with their values.
#[derive(Debug)]
pub struct Args {
    positionals: std::vec::IntoIter<String>,
    flags: Vec<(String, Option<String>)>,
}

/// The `(flag, placeholder)` pairs of a flag list: a word after a flag
/// that is not itself a flag is that flag's placeholder.
fn flag_list(list: &str) -> impl Iterator<Item = (&str, Option<&str>)> {
    let mut words = list.split_whitespace().peekable();
    std::iter::from_fn(move || Some((words.next()?, words.next_if(|w| !w.starts_with("--")))))
}

/// A flag list as a usage line shows it: `[--flag VALUE]`, and `…`
/// after a flag that may repeat.
#[must_use]
pub fn synopsis(list: &str) -> String {
    let shown: Vec<String> = flag_list(list)
        .map(|(flag, value)| match value {
            None => format!("[{flag}]"),
            Some(v) if v.ends_with("@CYCLE") => format!("[{flag} {v}]…"),
            Some(v) => format!("[{flag} {v}]"),
        })
        .collect();
    shown.join(" ")
}

/// `raw` parsed as `T`, or an error naming it and `what` it should be.
fn parse<T: FromStr>(raw: &str, what: &str) -> Result<T, String> {
    raw.parse()
        .map_err(|_| format!("`{raw}` is not a valid {what}"))
}

impl Args {
    /// Check `argv` against the flags of `lists` (one command may take
    /// several lists, such as its own and the [`crate::RunConfig`]
    /// flags).
    pub fn parse(argv: impl IntoIterator<Item = String>, lists: &[&str]) -> Result<Args, String> {
        let mut words = argv.into_iter().peekable();
        let positionals: Vec<String> =
            std::iter::from_fn(|| words.next_if(|w| !w.starts_with('-'))).collect();
        let mut flags: Vec<(String, Option<String>)> = Vec::new();
        while let Some(word) = words.next() {
            let Some((flag, value)) = lists
                .iter()
                .flat_map(|l| flag_list(l))
                .find(|&(f, _)| f == word)
            else {
                return Err(if word.starts_with('-') {
                    format!("unknown flag `{word}`")
                } else {
                    format!("unexpected argument `{word}`: positionals go before the flags")
                });
            };
            let repeats = value.is_some_and(|v| v.ends_with("@CYCLE"));
            if !repeats && flags.iter().any(|(f, _)| f == flag) {
                return Err(format!("{flag} may be given once"));
            }
            let value = value.map(|_| words.next_if(|v| !v.starts_with("--")));
            let value = value.map(|v| v.ok_or_else(|| format!("{flag} needs a value")));
            let value = value.transpose()?;
            flags.push((word, value));
        }
        Ok(Args {
            positionals: positionals.into_iter(),
            flags,
        })
    }

    /// The positionals not consumed yet.
    #[must_use]
    pub fn remaining(&self) -> &[String] {
        self.positionals.as_slice()
    }

    /// The next positional parsed as `T`, or `default` when there is
    /// none left. One that does not parse is an error naming `what`.
    pub fn positional<T: FromStr>(&mut self, what: &str, default: T) -> Result<T, String> {
        let raw = self.positionals.next();
        raw.map_or(Ok(default), |raw| parse(&raw, what))
    }

    /// Every positional must have been consumed by now.
    pub fn finish(&mut self) -> Result<(), String> {
        let extra = self.positionals.next();
        extra.map_or(Ok(()), |extra| {
            Err(format!("unexpected argument `{extra}`"))
        })
    }

    /// Whether `flag` was given.
    #[must_use]
    pub fn flag(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| f == flag)
    }

    /// Every value given for `flag`, in order (one at most unless the
    /// flag repeats).
    pub fn values<'a>(&'a self, flag: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.flags
            .iter()
            .filter(move |(f, _)| f == flag)
            .filter_map(|(_, v)| v.as_deref())
    }

    /// The value given for `flag`, if any.
    #[must_use]
    pub fn get<'a>(&'a self, flag: &'a str) -> Option<&'a str> {
        self.values(flag).next()
    }

    /// The value given for `flag` parsed as `T`; `default` when absent.
    /// One that does not parse is an error naming the flag.
    pub fn value<T: FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        let raw = self.get(flag);
        raw.map_or(Ok(default), |raw| parse(raw, &format!("{flag} value")))
    }

    /// [`value`](Self::value), which must also lie in `range`.
    pub fn value_in<T, R>(&self, flag: &str, default: T, range: R) -> Result<T, String>
    where
        T: FromStr + PartialOrd + Debug,
        R: RangeBounds<T>,
    {
        let value = self.value(flag, default)?;
        if range.contains(&value) {
            return Ok(value);
        }
        let low = match range.start_bound() {
            Included(x) => format!("[{x:?}"),
            Excluded(x) => format!("({x:?}"),
            Unbounded => "(-inf".into(),
        };
        let high = match range.end_bound() {
            Included(x) => format!("{x:?}]"),
            Excluded(x) => format!("{x:?})"),
            Unbounded => "inf)".into(),
        };
        Err(format!("{flag} must be in {low}, {high}, got {value:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLAGS: &str = "--quick --disks N --fail DISK@CYCLE";

    fn parse(argv: &[&str]) -> Result<Args, String> {
        Args::parse(argv.iter().map(|s| (*s).to_owned()), &[FLAGS])
    }

    /// Accepted command lines with what they parse to (positionals |
    /// flags), rejected ones with the words of their error.
    #[test]
    fn accepted_and_rejected_command_lines() {
        let table: [(&[&str], Result<&str, &str>); 13] = [
            (&[], Ok(" |")),
            (&["out.json", "16"], Ok("out.json 16 |")),
            (&["out.json", "--quick"], Ok("out.json | --quick")),
            (&["--disks", "8", "--quick"], Ok(" | --disks=8 --quick")),
            (&["--disks", "-1"], Ok(" | --disks=-1")),
            (
                &["--fail", "1@2", "--fail", "3@4"],
                Ok(" | --fail=1@2 --fail=3@4"),
            ),
            (&["--quik"], Err("unknown flag `--quik`")),
            (&["-q", "out.json"], Err("unknown flag `-q`")),
            (
                &["--quick", "out.json"],
                Err("unexpected argument `out.json`"),
            ),
            (&["--disks"], Err("--disks needs a value")),
            (&["--disks", "--quick"], Err("--disks needs a value")),
            (
                &["--disks", "8", "--disks", "9"],
                Err("--disks may be given once"),
            ),
            (&["--quick", "--quick"], Err("--quick may be given once")),
        ];
        for (argv, want) in table {
            let got = parse(argv).map(|args| {
                let flags: Vec<String> = args
                    .flags
                    .iter()
                    .map(|(f, v)| v.as_ref().map_or(f.clone(), |v| format!("{f}={v}")))
                    .collect();
                format!("{} | {}", args.remaining().join(" "), flags.join(" "))
            });
            match (got, want) {
                (Ok(got), Ok(want)) => assert_eq!(got.trim_end(), want, "{argv:?}"),
                (Err(err), Err(want)) => assert!(err.contains(want), "{argv:?}: {err}"),
                (got, _) => panic!("{argv:?} parsed as {got:?}, want {want:?}"),
            }
        }
    }

    #[test]
    fn values_take_their_types_or_name_the_argument() {
        let mut args = parse(&["out.json", "16", "--disks", "8", "--fail", "1@2"]).unwrap();
        assert_eq!(
            args.positional("output path", String::new()).unwrap(),
            "out.json"
        );
        assert_eq!(args.positional("trial count", 0usize), Ok(16));
        assert_eq!(
            args.positional("thread count", 7usize),
            Ok(7),
            "absent: default"
        );
        args.finish().unwrap();
        assert!(!args.flag("--quick"));
        assert_eq!(args.value("--disks", 10usize), Ok(8));
        assert_eq!(args.value_in("--disks", 10usize, 2..), Ok(8));
        assert_eq!(args.get("--fail"), Some("1@2"));

        let mut args = parse(&["fourty", "extra", "--disks", "1", "--fail", "x"]).unwrap();
        let err = args.positional("trial count", 400usize).unwrap_err();
        assert_eq!(err, "`fourty` is not a valid trial count");
        assert_eq!(args.finish().unwrap_err(), "unexpected argument `extra`");
        let err = args.value("--fail", 0usize).unwrap_err();
        assert_eq!(err, "`x` is not a valid --fail value");
        let err = args.value_in("--disks", 10usize, 2..).unwrap_err();
        assert_eq!(err, "--disks must be in [2, inf), got 1");
    }

    #[test]
    fn the_synopsis_reads_off_the_same_list() {
        assert_eq!(
            synopsis(FLAGS),
            "[--quick] [--disks N] [--fail DISK@CYCLE]…"
        );
    }
}

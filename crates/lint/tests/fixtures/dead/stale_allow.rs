//! `dead-pub` allow hygiene: an allow on a fn something calls
//! suppresses nothing, which is itself an error.

// lint:allow(dead-pub): stale — `called` is called below
pub fn called() -> u32 {
    7
}

pub fn caller() -> u32 {
    called()
}

#[cfg(test)]
mod tests {
    #[test]
    fn calls() {
        assert_eq!(super::caller(), 7);
    }
}

//! The bench binaries' environment knobs, all read one way. An unset knob
//! takes its default. A set knob must parse, or the binary exits 2 naming
//! the variable and its value: a typo never runs the default in silence.

use std::env::VarError;

/// An unsigned integer knob, decimal or `0x` hex; `None` when unset.
pub fn int<T: TryFrom<u64>>(name: &str) -> Option<T> {
    read(name, parse_int)
}

/// A finite float knob; `None` when unset.
pub fn float(name: &str) -> Option<f64> {
    read(name, parse_float)
}

/// A comma list of positive integers (`1,2,4`); `None` when unset.
pub fn list<T: TryFrom<u64>>(name: &str) -> Option<Vec<T>> {
    read(name, parse_list)
}

/// A `0`/`1` flag; unset reads `0`.
pub fn flag(name: &str) -> bool {
    read(name, parse_flag).unwrap_or(false)
}

fn read<T>(name: &str, parse: impl Fn(&str) -> Result<T, String>) -> Option<T> {
    let value = match std::env::var(name) {
        Err(VarError::NotPresent) => return None,
        Err(VarError::NotUnicode(v)) => bad(name, &v.to_string_lossy(), "not UTF-8"),
        Ok(v) => v,
    };
    Some(parse(&value).unwrap_or_else(|why| bad(name, &value, &why)))
}

fn bad(name: &str, value: &str, why: &str) -> ! {
    eprintln!("{name}={value:?}: {why}");
    std::process::exit(2);
}

fn parse_int<T: TryFrom<u64>>(v: &str) -> Result<T, String> {
    let v = v.trim();
    let n = match v.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse(),
    }
    .map_err(|_| "not an unsigned integer (decimal or 0x hex)".to_string())?;
    T::try_from(n).map_err(|_| format!("{n} is out of range"))
}

fn parse_float(v: &str) -> Result<f64, String> {
    match v.trim().parse::<f64>() {
        Ok(x) if x.is_finite() => Ok(x),
        _ => Err("not a finite number".into()),
    }
}

fn parse_list<T: TryFrom<u64>>(v: &str) -> Result<Vec<T>, String> {
    v.split(',')
        .map(|item| match parse_int::<u64>(item) {
            Ok(0) | Err(_) => Err(format!("list item {item:?} is not a positive integer")),
            Ok(n) => T::try_from(n).map_err(|_| format!("list item {n} is out of range")),
        })
        .collect()
}

fn parse_flag(v: &str) -> Result<bool, String> {
    match v.trim() {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err("not a flag (0 or 1)".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ints_read_decimal_and_hex() {
        assert_eq!(parse_int::<u64>("42"), Ok(42));
        assert_eq!(parse_int::<u64>(" 0x5EED "), Ok(0x5EED));
        // Above 2^53 a seed read through f64 would become another stream.
        assert_eq!(
            parse_int::<u64>("9007199254740993"),
            Ok(9_007_199_254_740_993)
        );
        assert_eq!(parse_int::<usize>("150"), Ok(150));
    }

    #[test]
    fn ints_reject_what_is_not_an_unsigned_integer() {
        for bad in ["", "x", "-1", "1.5", "1e5", "0x", "0xg", "12 34"] {
            assert!(parse_int::<u64>(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn ints_reject_values_out_of_the_knob_range() {
        assert!(parse_int::<u32>("4294967296").is_err());
        assert!(parse_int::<u64>("18446744073709551616").is_err());
    }

    #[test]
    fn floats_reject_malformed_and_non_finite_values() {
        assert_eq!(parse_float("0.375"), Ok(0.375));
        for bad in ["", "x", "0.2.5", "nan", "inf", "-inf"] {
            assert!(parse_float(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn lists_reject_any_bad_item() {
        assert_eq!(parse_list::<usize>("1,2,3"), Ok(vec![1, 2, 3]));
        assert_eq!(parse_list::<u64>("1, 4"), Ok(vec![1, 4]));
        for bad in ["", "1,2,x", "1,,2", "1,2,", "0,1", "1;2"] {
            assert!(parse_list::<u64>(bad).is_err(), "{bad:?}");
        }
        assert!(parse_list::<u32>("1,4294967296").is_err());
    }

    #[test]
    fn flags_accept_only_0_and_1() {
        assert_eq!(parse_flag("0"), Ok(false));
        assert_eq!(parse_flag("1"), Ok(true));
        for bad in ["", "yes", "true", "2", "01x"] {
            assert!(parse_flag(bad).is_err(), "{bad:?}");
        }
    }
}

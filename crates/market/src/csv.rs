//! Plain-text import/export of hourly price series.
//!
//! The workspace generates its own calibrated synthetic prices, but the
//! simulator is equally happy to run on real RTO data. This module defines
//! a minimal CSV interchange format so archived market data can be dropped
//! in without adding a CSV dependency:
//!
//! ```text
//! hub,hour,price
//! NP15,0,42.17
//! NP15,1,39.80
//! ...
//! ```
//!
//! `hub` is a market location code (see [`wattroute_geo::hubs::find_by_code`]),
//! `hour` is hours since 2006-01-01 00:00 EST, and `price` is $/MWh, a
//! finite number.

use crate::time::SimHour;
use crate::types::{MarketKind, PriceSeries, PriceSet};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use wattroute_geo::hubs;

/// Errors produced while parsing price CSV data.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // variant fields are self-describing (line, code, ...)
pub enum CsvError {
    /// The header row was missing or malformed.
    BadHeader(String),
    /// A data row did not have exactly three fields.
    BadRow { line: usize, content: String },
    /// A field failed to parse.
    BadField { line: usize, field: &'static str, value: String },
    /// An unknown hub code was encountered.
    UnknownHub { line: usize, code: String },
    /// A hub's hours were not contiguous starting from its first hour.
    NonContiguous { hub: String, expected_hour: u64, found_hour: u64 },
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::BadHeader(h) => write!(f, "bad header: {h:?} (expected 'hub,hour,price')"),
            CsvError::BadRow { line, content } => {
                write!(f, "line {line}: expected 3 fields, got {content:?}")
            }
            CsvError::BadField { line, field, value } => {
                write!(f, "line {line}: could not parse {field} from {value:?}")
            }
            CsvError::UnknownHub { line, code } => {
                write!(f, "line {line}: unknown hub code {code:?}")
            }
            CsvError::NonContiguous { hub, expected_hour, found_hour } => write!(
                f,
                "hub {hub}: hours must be contiguous, expected {expected_hour} found {found_hour}"
            ),
        }
    }
}

impl std::error::Error for CsvError {}

/// Serialize a price set to the CSV interchange format.
pub fn to_csv(set: &PriceSet) -> String {
    let mut out = String::from("hub,hour,price\n");
    for series in &set.series {
        let code = hubs::hub(series.hub).code;
        for (i, price) in series.hourly_prices().iter().enumerate() {
            let _ = writeln!(out, "{code},{},{:.4}", series.start.0 + i as u64, price);
        }
    }
    out
}

/// Parse the CSV interchange format into a [`PriceSet`] of hourly real-time
/// series. Rows may be grouped by hub in any order, but each hub's hours
/// must be contiguous.
pub fn from_csv(text: &str) -> Result<PriceSet, CsvError> {
    let mut lines = text.lines().enumerate();
    let header = loop {
        match lines.next() {
            Some((_, l)) if l.trim().is_empty() => continue,
            Some((_, l)) => break l,
            None => return Err(CsvError::BadHeader(String::new())),
        }
    };
    let normalized: String =
        header.split(',').map(|s| s.trim().to_ascii_lowercase()).collect::<Vec<_>>().join(",");
    if normalized != "hub,hour,price" {
        return Err(CsvError::BadHeader(header.to_string()));
    }

    // hub code -> (sorted map of hour -> price)
    let mut per_hub: BTreeMap<String, BTreeMap<u64, f64>> = BTreeMap::new();
    for (idx, line) in lines {
        let line_no = idx + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let fields: Vec<&str> = trimmed.split(',').map(|s| s.trim()).collect();
        if fields.len() != 3 {
            return Err(CsvError::BadRow { line: line_no, content: trimmed.to_string() });
        }
        let code = fields[0].to_string();
        if hubs::find_by_code(&code).is_none() {
            return Err(CsvError::UnknownHub { line: line_no, code });
        }
        let hour: u64 = fields[1].parse().map_err(|_| CsvError::BadField {
            line: line_no,
            field: "hour",
            value: fields[1].to_string(),
        })?;
        // `f64::from_str` also accepts "NaN", "inf" and "infinity"; a price
        // must be finite, as the live price feed requires too.
        let price = fields[2].parse::<f64>().ok().filter(|p| p.is_finite()).ok_or_else(|| {
            CsvError::BadField { line: line_no, field: "price", value: fields[2].to_string() }
        })?;
        per_hub.entry(code).or_default().insert(hour, price);
    }

    let mut series = Vec::new();
    for (code, hours) in per_hub {
        let hub = hubs::find_by_code(&code).expect("validated above");
        let first = *hours.keys().next().expect("non-empty map");
        let mut prices = Vec::with_capacity(hours.len());
        for (expected, (&hour, &price)) in hours.iter().enumerate() {
            let expected_hour = first + expected as u64;
            if hour != expected_hour {
                return Err(CsvError::NonContiguous {
                    hub: code.clone(),
                    expected_hour,
                    found_hour: hour,
                });
            }
            prices.push(price);
        }
        series.push(PriceSeries::new(hub.id, MarketKind::RealTimeHourly, SimHour(first), prices));
    }
    Ok(PriceSet::new(series))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::PriceGenerator;
    use crate::time::HourRange;
    use wattroute_geo::HubId;

    #[test]
    fn roundtrip_generated_prices() {
        let g = PriceGenerator::nine_cluster_default(55);
        let r = HourRange::new(SimHour(0), SimHour(48));
        let set = g.realtime_hourly(r);
        let csv = to_csv(&set);
        let parsed = from_csv(&csv).unwrap();
        assert_eq!(parsed.series.len(), set.series.len());
        for original in &set.series {
            let round = parsed.for_hub(original.hub).unwrap();
            assert_eq!(round.start, original.start);
            for (a, b) in round.prices.iter().zip(&original.prices) {
                assert!((a - b).abs() < 1e-3, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn parses_hand_written_csv() {
        let text = "hub,hour,price\nNP15,10,42.5\nNP15,11,40.0\nNYC,10,80.0\nNYC,11,85.5\n";
        let set = from_csv(text).unwrap();
        assert_eq!(set.series.len(), 2);
        let np15 = set.for_hub(HubId::PaloAltoCa).unwrap();
        assert_eq!(np15.start, SimHour(10));
        assert_eq!(np15.prices, vec![42.5, 40.0]);
    }

    #[test]
    fn header_is_required() {
        assert!(matches!(from_csv(""), Err(CsvError::BadHeader(_))));
        assert!(matches!(from_csv("a,b\n"), Err(CsvError::BadHeader(_))));
        // Header is case/space tolerant.
        assert!(from_csv("Hub, Hour, Price\nNYC,0,50\n").is_ok());
    }

    #[test]
    fn bad_rows_are_rejected_with_line_numbers() {
        let err = from_csv("hub,hour,price\nNYC,1\n").unwrap_err();
        assert!(matches!(err, CsvError::BadRow { line: 2, .. }));
        let err = from_csv("hub,hour,price\nNYC,xx,50\n").unwrap_err();
        assert!(matches!(err, CsvError::BadField { field: "hour", .. }));
        let err = from_csv("hub,hour,price\nNYC,1,abc\n").unwrap_err();
        assert!(matches!(err, CsvError::BadField { field: "price", .. }));
        let err = from_csv("hub,hour,price\nNOWHERE,1,50\n").unwrap_err();
        assert!(matches!(err, CsvError::UnknownHub { .. }));
    }

    #[test]
    fn non_finite_prices_are_rejected() {
        for value in ["NaN", "nan", "inf", "-inf", "infinity", "-Infinity", "1e400"] {
            let err = from_csv(&format!("hub,hour,price\nNYC,0,50\nNYC,1,{value}\n")).unwrap_err();
            assert_eq!(
                err,
                CsvError::BadField { line: 3, field: "price", value: value.to_string() },
                "{value}"
            );
        }
    }

    #[test]
    fn gaps_are_rejected() {
        let err = from_csv("hub,hour,price\nNYC,0,50\nNYC,2,55\n").unwrap_err();
        assert!(matches!(err, CsvError::NonContiguous { expected_hour: 1, found_hour: 2, .. }));
    }

    #[test]
    fn error_messages_are_informative() {
        let err = from_csv("hub,hour,price\nNYC,0,50\nNYC,5,55\n").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("NYC") && msg.contains('5'));
    }
}

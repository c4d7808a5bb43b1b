//! Text serialization of the catalog (`catalog.meta`).
//!
//! The database facade writes this file next to the page files when a
//! database is saved, so a reopened database keeps its relations, indexes,
//! and — critically for plan reproducibility — its optimizer statistics:
//! the optimizer must pick the same access paths before and after a
//! close/open cycle, which requires NCARD/TCARD/ICARD/NINDX and the
//! interpolation bounds to survive byte-exactly. Floats are therefore
//! stored as IEEE bit patterns, not decimal renderings.

use crate::meta::{Catalog, CatalogError, ColumnMeta};
use crate::stats::{IndexStats, RelStats};
use sysr_rss::{ColType, Value};

/// Name of the catalog descriptor file inside a database directory.
pub const CATALOG_META: &str = "catalog.meta";

fn hex_encode(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn hex_decode(s: &str) -> Result<Vec<u8>, CatalogError> {
    if s.len() % 2 != 0 {
        return Err(bad("odd-length hex string"));
    }
    s.as_bytes()
        .chunks(2)
        .map(|pair| {
            std::str::from_utf8(pair)
                .ok()
                .and_then(|d| u8::from_str_radix(d, 16).ok())
                .ok_or_else(|| bad("bad hex digit"))
        })
        .collect()
}

fn col_type_token(ty: ColType) -> &'static str {
    match ty {
        ColType::Int => "int",
        ColType::Float => "float",
        ColType::Str => "str",
    }
}

fn parse_col_type(tok: &str) -> Result<ColType, CatalogError> {
    match tok {
        "int" => Ok(ColType::Int),
        "float" => Ok(ColType::Float),
        "str" => Ok(ColType::Str),
        other => Err(bad(format!("unknown column type {other:?}"))),
    }
}

/// Encode an optional bound value as one token: `-` absent, `N` null,
/// `I<int>`, `F<f64 bits in hex>`, `S<utf-8 bytes in hex>`.
fn value_token(v: &Option<Value>) -> String {
    match v {
        None => "-".into(),
        Some(Value::Null) => "N".into(),
        Some(Value::Int(i)) => format!("I{i}"),
        Some(Value::Float(x)) => format!("F{:016x}", x.to_bits()),
        Some(Value::Str(s)) => format!("S{}", hex_encode(s.as_bytes())),
    }
}

fn parse_value_token(tok: &str) -> Result<Option<Value>, CatalogError> {
    match tok.split_at_checked(1) {
        Some(("-", "")) => Ok(None),
        Some(("N", "")) => Ok(Some(Value::Null)),
        Some(("I", rest)) => Ok(Some(Value::Int(rest.parse().map_err(|_| bad("bad int bound"))?))),
        Some(("F", rest)) => {
            let bits = u64::from_str_radix(rest, 16).map_err(|_| bad("bad float bound"))?;
            Ok(Some(Value::Float(f64::from_bits(bits))))
        }
        Some(("S", rest)) => {
            let bytes = hex_decode(rest)?;
            let s = String::from_utf8(bytes).map_err(|_| bad("bound is not utf-8"))?;
            Ok(Some(Value::Str(s)))
        }
        _ => Err(bad(format!("bad bound token {tok:?}"))),
    }
}

fn bad(detail: impl std::fmt::Display) -> CatalogError {
    CatalogError::Invalid(format!("malformed {CATALOG_META}: {detail}"))
}

/// Render the catalog as the `catalog.meta` text format.
pub fn render(catalog: &Catalog) -> String {
    let mut out = String::from("sysr-catalog v1\n");
    for rel in catalog.relations() {
        out.push_str(&format!("rel {} {} {} {}", rel.id, rel.segment, rel.name, rel.arity()));
        for c in &rel.columns {
            out.push_str(&format!(" {} {}", c.name, col_type_token(c.ty)));
        }
        out.push('\n');
        let s = &rel.stats;
        out.push_str(&format!(
            "relstats {} {} {} {} {:016x} {:016x}\n",
            rel.id,
            u8::from(s.valid),
            s.ncard,
            s.tcard,
            s.pfrac.to_bits(),
            s.avg_width.to_bits(),
        ));
    }
    for idx in catalog.indexes() {
        let cols: Vec<String> = idx.key_cols.iter().map(|c| c.to_string()).collect();
        out.push_str(&format!(
            "idx {} {} {} {} {} {}\n",
            idx.id,
            idx.rel,
            u8::from(idx.unique),
            u8::from(idx.clustered),
            idx.name,
            cols.join(" "),
        ));
        let s = &idx.stats;
        out.push_str(&format!(
            "idxstats {} {} {} {} {} {} {}\n",
            idx.id,
            u8::from(s.valid),
            s.icard,
            s.nindx,
            s.leaf_pages,
            value_token(&s.low_key),
            value_token(&s.high_key),
        ));
    }
    out
}

fn tok<'a, I: Iterator<Item = &'a str>>(it: &mut I, what: &str) -> Result<&'a str, CatalogError> {
    it.next().ok_or_else(|| bad(format!("missing {what}")))
}

fn num<'a, T: std::str::FromStr, I: Iterator<Item = &'a str>>(
    it: &mut I,
    what: &str,
) -> Result<T, CatalogError> {
    tok(it, what)?.parse().map_err(|_| bad(format!("bad {what}")))
}

/// Parse a `catalog.meta` file back into a [`Catalog`].
pub fn parse(text: &str) -> Result<Catalog, CatalogError> {
    let mut lines = text.lines();
    if lines.next() != Some("sysr-catalog v1") {
        return Err(bad("unknown header"));
    }
    let mut catalog = Catalog::new();
    for line in lines {
        let mut t = line.split_whitespace();
        match t.next() {
            Some("rel") => {
                let id: u16 = num(&mut t, "relation id")?;
                let segment = num(&mut t, "segment id")?;
                let name = tok(&mut t, "relation name")?;
                let ncols: usize = num(&mut t, "column count")?;
                let mut columns = Vec::with_capacity(ncols);
                for _ in 0..ncols {
                    let cname = tok(&mut t, "column name")?;
                    let ty = parse_col_type(tok(&mut t, "column type")?)?;
                    columns.push(ColumnMeta::new(cname, ty));
                }
                let got = catalog.create_relation(name, segment, columns)?;
                if got != id {
                    return Err(bad(format!("relation ids out of order: {id} became {got}")));
                }
            }
            Some("relstats") => {
                let id: u16 = num(&mut t, "relation id")?;
                let valid: u8 = num(&mut t, "valid flag")?;
                let stats = RelStats {
                    ncard: num(&mut t, "ncard")?,
                    tcard: num(&mut t, "tcard")?,
                    pfrac: f64::from_bits(
                        u64::from_str_radix(tok(&mut t, "pfrac")?, 16)
                            .map_err(|_| bad("bad pfrac"))?,
                    ),
                    avg_width: f64::from_bits(
                        u64::from_str_radix(tok(&mut t, "avg width")?, 16)
                            .map_err(|_| bad("bad avg width"))?,
                    ),
                    valid: valid != 0,
                };
                if !catalog.set_relation_stats(id, stats) {
                    return Err(bad(format!("relstats for unknown relation {id}")));
                }
            }
            Some("idx") => {
                let id = num(&mut t, "index id")?;
                let rel = num(&mut t, "index relation")?;
                let unique: u8 = num(&mut t, "unique flag")?;
                let clustered: u8 = num(&mut t, "clustered flag")?;
                let name = tok(&mut t, "index name")?;
                let key_cols: Vec<usize> = t
                    .map(|c| c.parse().map_err(|_| bad("bad key column")))
                    .collect::<Result<_, _>>()?;
                catalog.register_index(id, name, rel, key_cols, unique != 0, clustered != 0)?;
            }
            Some("idxstats") => {
                let id = num(&mut t, "index id")?;
                let valid: u8 = num(&mut t, "valid flag")?;
                let stats = IndexStats {
                    icard: num(&mut t, "icard")?,
                    nindx: num(&mut t, "nindx")?,
                    leaf_pages: num(&mut t, "leaf pages")?,
                    low_key: parse_value_token(tok(&mut t, "low key")?)?,
                    high_key: parse_value_token(tok(&mut t, "high key")?)?,
                    valid: valid != 0,
                };
                if !catalog.set_index_stats(id, stats) {
                    return Err(bad(format!("idxstats for unknown index {id}")));
                }
            }
            Some(other) => return Err(bad(format!("unknown line kind {other:?}"))),
            None => {} // blank line
        }
    }
    Ok(catalog)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_catalog() -> Catalog {
        let mut cat = Catalog::new();
        let emp = cat
            .create_relation(
                "EMP",
                0,
                vec![
                    ColumnMeta::new("id", ColType::Int),
                    ColumnMeta::new("name", ColType::Str),
                    ColumnMeta::new("salary", ColType::Float),
                ],
            )
            .unwrap();
        let dept = cat
            .create_relation(
                "DEPT",
                1,
                vec![ColumnMeta::new("dno", ColType::Int), ColumnMeta::new("dname", ColType::Str)],
            )
            .unwrap();
        cat.register_index(0, "emp_id", emp, vec![0], true, true).unwrap();
        cat.register_index(1, "emp_name", emp, vec![1, 0], false, false).unwrap();
        cat.register_index(2, "dept_dno", dept, vec![0], true, false).unwrap();
        cat.set_relation_stats(
            emp,
            RelStats { ncard: 10_000, tcard: 243, pfrac: 0.8125, avg_width: 37.5, valid: true },
        );
        cat.set_index_stats(
            0,
            IndexStats {
                icard: 10_000,
                nindx: 55,
                leaf_pages: 50,
                low_key: Some(Value::Int(-3)),
                high_key: Some(Value::Int(99_999)),
                valid: true,
            },
        );
        cat.set_index_stats(
            1,
            IndexStats {
                icard: 9_800,
                nindx: 80,
                leaf_pages: 77,
                low_key: Some(Value::Str("AARON".into())),
                high_key: Some(Value::Str("ZU older".into())),
                valid: true,
            },
        );
        cat
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let cat = demo_catalog();
        let text = render(&cat);
        let back = parse(&text).unwrap();
        assert_eq!(back.relations().len(), 2);
        for (a, b) in cat.relations().iter().zip(back.relations()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.name, b.name);
            assert_eq!(a.segment, b.segment);
            assert_eq!(a.columns, b.columns);
            assert_eq!(a.stats, b.stats);
        }
        assert_eq!(back.indexes().len(), 3);
        for (a, b) in cat.indexes().iter().zip(back.indexes()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.name, b.name);
            assert_eq!(a.rel, b.rel);
            assert_eq!(a.key_cols, b.key_cols);
            assert_eq!(a.unique, b.unique);
            assert_eq!(a.clustered, b.clustered);
            assert_eq!(a.stats, b.stats);
        }
        // Name lookups work on the parsed catalog.
        assert!(back.relation_by_name("emp").is_ok());
        assert!(back.index_by_name("dept_dno").is_ok());
    }

    #[test]
    fn float_bounds_roundtrip_bit_exactly() {
        let mut cat = Catalog::new();
        let rel = cat.create_relation("T", 0, vec![ColumnMeta::new("x", ColType::Float)]).unwrap();
        cat.register_index(0, "t_x", rel, vec![0], false, false).unwrap();
        // A value with no finite decimal rendering.
        let v = 0.1f64 + 0.2f64;
        cat.set_index_stats(
            0,
            IndexStats {
                icard: 7,
                nindx: 1,
                leaf_pages: 1,
                low_key: Some(Value::Float(v)),
                high_key: None,
                valid: true,
            },
        );
        let back = parse(&render(&cat)).unwrap();
        assert_eq!(back.index(0).unwrap().stats.low_key, Some(Value::Float(v)));
        assert_eq!(back.index(0).unwrap().stats.high_key, None);
    }

    #[test]
    fn malformed_inputs_are_clean_errors() {
        assert!(parse("").is_err());
        assert!(parse("something else\n").is_err());
        assert!(parse("sysr-catalog v1\nrel zero\n").is_err());
        assert!(parse("sysr-catalog v1\nrelstats 0 1 5 5 0 0\n").is_err());
        assert!(parse("sysr-catalog v1\nwhat 1 2 3\n").is_err());
        // Stats for a relation that was never declared.
        assert!(parse("sysr-catalog v1\nidxstats 0 1 1 1 1 - -\n").is_err());
    }
}

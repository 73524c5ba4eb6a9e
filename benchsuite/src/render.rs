//! Text renderings of generated schemas, so the service workload can
//! ship them the way a client would: as XSD documents, and flat ones
//! (root → tables → columns) as SQL DDL.

use coma_graph::{DataType, NodeId, PathSet, Schema};
use std::fmt::Write;

fn xsd_type(dt: DataType) -> &'static str {
    match dt {
        DataType::Text => "xsd:string",
        DataType::Integer => "xsd:integer",
        DataType::Decimal => "xsd:decimal",
        DataType::Float => "xsd:double",
        DataType::Boolean => "xsd:boolean",
        DataType::Date => "xsd:date",
        DataType::Time => "xsd:time",
        DataType::DateTime => "xsd:dateTime",
        DataType::Duration => "xsd:duration",
        DataType::Binary => "xsd:base64Binary",
        DataType::Uri => "xsd:anyURI",
        DataType::Id => "xsd:ID",
        DataType::IdRef => "xsd:IDREF",
        _ => "xsd:anyType",
    }
}

fn sql_type(dt: DataType) -> Option<&'static str> {
    Some(match dt {
        DataType::Text => "VARCHAR(200)",
        DataType::Integer => "INT",
        DataType::Decimal => "DECIMAL(12,2)",
        DataType::Float => "FLOAT",
        DataType::Boolean => "BOOLEAN",
        DataType::Date => "DATE",
        DataType::Time => "TIME",
        DataType::DateTime => "TIMESTAMP",
        DataType::Duration => "INTERVAL",
        DataType::Binary => "BLOB",
        _ => return None,
    })
}

fn xsd_element(schema: &Schema, id: NodeId, depth: usize, out: &mut String) {
    let node = schema.node(id);
    let pad = "  ".repeat(depth);
    let children = schema.children(id);
    if children.is_empty() {
        match node.datatype {
            Some(dt) => writeln!(
                out,
                "{pad}<xsd:element name=\"{}\" type=\"{}\"/>",
                node.name,
                xsd_type(dt)
            ),
            None => writeln!(out, "{pad}<xsd:element name=\"{}\"/>", node.name),
        }
        .expect("writing to a String");
        return;
    }
    writeln!(out, "{pad}<xsd:element name=\"{}\">", node.name).expect("writing to a String");
    writeln!(out, "{pad}  <xsd:complexType>\n{pad}    <xsd:sequence>").expect("writing");
    for &c in children {
        xsd_element(schema, c, depth + 3, out);
    }
    writeln!(
        out,
        "{pad}    </xsd:sequence>\n{pad}  </xsd:complexType>\n{pad}</xsd:element>"
    )
    .expect("writing to a String");
}

/// The schema as an XSD document: one global element for the root, every
/// inner node an anonymous complex type, every leaf a built-in-typed
/// element. Tree-shaped schemas only (every generated schema is a tree).
pub fn to_xsd(schema: &Schema) -> String {
    let mut out = String::from("<xsd:schema xmlns:xsd=\"http://www.w3.org/2001/XMLSchema\">\n");
    xsd_element(schema, schema.root(), 1, &mut out);
    out.push_str("</xsd:schema>\n");
    out
}

/// The schema as SQL DDL when it is flat — root → tables → typed
/// columns, table names unique, every type representable — else `None`.
/// The DDL importer names its root after the schema, so a DDL round trip
/// keeps path names below the root.
pub fn to_ddl(schema: &Schema) -> Option<String> {
    let mut out = String::new();
    let mut tables = std::collections::HashSet::new();
    for &t in schema.children(schema.root()) {
        let table = schema.node(t);
        let columns = schema.children(t);
        if columns.is_empty() || !tables.insert(table.name.to_lowercase()) {
            return None;
        }
        writeln!(out, "CREATE TABLE {} (", table.name).expect("writing to a String");
        for (k, &c) in columns.iter().enumerate() {
            let col = schema.node(c);
            if !schema.children(c).is_empty() {
                return None;
            }
            let ty = sql_type(col.datatype?)?;
            let sep = if k + 1 == columns.len() { "" } else { "," };
            writeln!(out, "  {} {ty}{sep}", col.name).expect("writing to a String");
        }
        out.push_str(");\n");
    }
    Some(out)
}

/// Every path's name below the root (root excluded, `.`-joined) with its
/// leaf datatype, in path order — what a rendering round trip preserves.
pub fn path_signature(schema: &Schema) -> Vec<(String, Option<DataType>)> {
    let paths = PathSet::new(schema).expect("generated schemas unfold");
    paths
        .iter()
        .filter(|&p| p != paths.root())
        .map(|p| {
            let full = paths.full_name(schema, p);
            let below_root = full
                .split_once('.')
                .map_or("", |(_, rest)| rest)
                .to_string();
            (below_root, schema.node(paths.node_of(p)).datatype)
        })
        .collect()
}

/// Whether importing `text` in its format gives `schema`'s paths and
/// datatypes back.
pub fn round_trips(schema: &Schema, text: &str, ddl: bool) -> bool {
    let root = &schema.node(schema.root()).name;
    let imported = if ddl {
        coma_sql::import_ddl(text, root).map_err(|e| e.to_string())
    } else {
        coma_xml::import_xsd(text, schema.name()).map_err(|e| e.to_string())
    };
    match imported {
        Ok(back) => {
            path_signature(&back) == path_signature(schema)
                && (ddl || back.node(back.root()).name == *root)
        }
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coma_bench::workload::{generate_task, WorkloadShape, WorkloadSpec};

    #[test]
    fn xsd_renderings_import_back_to_the_same_paths_and_types() {
        for shape in [
            WorkloadShape::Star,
            WorkloadShape::Deep,
            WorkloadShape::Wide,
            WorkloadShape::Catalog,
        ] {
            let (source, target) = generate_task(&WorkloadSpec::new(shape, 300, 11));
            for schema in [&source, &target] {
                let xsd = to_xsd(schema);
                assert!(round_trips(schema, &xsd, false), "{}", schema.name());
                let back = coma_xml::import_xsd(&xsd, schema.name()).unwrap();
                assert_eq!(back.node_count(), schema.node_count());
            }
        }
    }

    #[test]
    fn flat_schemas_with_unique_tables_render_as_ddl() {
        let mut rendered = 0;
        for seed in 0..20 {
            let (source, _) = generate_task(&WorkloadSpec::new(WorkloadShape::Catalog, 300, seed));
            if let Some(ddl) = to_ddl(&source) {
                if round_trips(&source, &ddl, true) {
                    rendered += 1;
                }
            }
        }
        assert!(
            rendered > 0,
            "some generated catalogs round-trip through DDL"
        );
        // Deep schemas are not flat.
        let (deep, _) = generate_task(&WorkloadSpec::new(WorkloadShape::Deep, 300, 1));
        assert!(to_ddl(&deep).is_none());
    }

    #[test]
    fn a_changed_datatype_breaks_the_round_trip() {
        let (source, _) = generate_task(&WorkloadSpec::new(WorkloadShape::Star, 200, 3));
        let xsd = to_xsd(&source).replacen("xsd:string", "xsd:boolean", 1);
        assert!(!round_trips(&source, &xsd, false));
    }
}

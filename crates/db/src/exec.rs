//! Statement execution: expression evaluation, access-path planning
//! (rowid lookup, index prefix scan, range scan, full scan), nested-loop
//! joins (SQLite's only join algorithm, §6.3.2), and the DML write paths
//! with index maintenance.

use std::collections::HashSet;

use xftl_ftl::BlockDevice;

use crate::btree;
use crate::catalog::{Catalog, IndexInfo, TableInfo};
use crate::error::{DbError, Result};
use crate::pager::Pager;
use crate::record::{
    decode_record, encode_index_key, encode_index_prefix, encode_record, index_key_rowid,
};
use crate::sql::{like_match, AggFn, BinOp, Expr, SelectItem, Stmt, TableRef};
use crate::value::Value;

/// Result of executing one statement.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecOutcome {
    /// SELECT output.
    Rows {
        /// Output column names.
        columns: Vec<String>,
        /// Result rows.
        rows: Vec<Vec<Value>>,
    },
    /// DML/DDL completion.
    Done {
        /// Rows inserted/updated/deleted.
        rows_affected: u64,
    },
}

impl ExecOutcome {
    /// The rows of a SELECT, or an empty list.
    pub fn rows(&self) -> &[Vec<Value>] {
        match self {
            ExecOutcome::Rows { rows, .. } => rows,
            ExecOutcome::Done { .. } => &[],
        }
    }

    /// Rows affected by DML (0 for SELECT).
    pub fn affected(&self) -> u64 {
        match self {
            ExecOutcome::Rows { .. } => 0,
            ExecOutcome::Done { rows_affected } => *rows_affected,
        }
    }
}

/// One source relation bound into the row context.
struct Binding {
    alias: String,
    cols: Vec<String>,
}

/// Row context for expression evaluation across joined tables.
struct Ctx<'a> {
    bindings: &'a [Binding],
    rows: Vec<&'a [Value]>,
}

impl Ctx<'_> {
    fn resolve(&self, qual: Option<&str>, name: &str) -> Result<Value> {
        for (b, row) in self.bindings.iter().zip(&self.rows) {
            if let Some(q) = qual {
                if !b.alias.eq_ignore_ascii_case(q) {
                    continue;
                }
            }
            if let Some(i) = b.cols.iter().position(|c| c.eq_ignore_ascii_case(name)) {
                return Ok(row[i].clone());
            }
            if qual.is_some() {
                break;
            }
        }
        Err(DbError::Unknown(match qual {
            Some(q) => format!("column {q}.{name}"),
            None => format!("column {name}"),
        }))
    }
}

fn arith(op: BinOp, a: &Value, b: &Value) -> Result<Value> {
    if matches!(a, Value::Null) || matches!(b, Value::Null) {
        return Ok(Value::Null);
    }
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => Ok(match op {
            BinOp::Add => Value::Int(x.wrapping_add(*y)),
            BinOp::Sub => Value::Int(x.wrapping_sub(*y)),
            BinOp::Mul => Value::Int(x.wrapping_mul(*y)),
            BinOp::Div => {
                if *y == 0 {
                    Value::Null
                } else {
                    Value::Int(x / y)
                }
            }
            _ => unreachable!(),
        }),
        _ => {
            let (x, y) = (
                a.as_f64()
                    .ok_or_else(|| DbError::Type("arithmetic on non-number".into()))?,
                b.as_f64()
                    .ok_or_else(|| DbError::Type("arithmetic on non-number".into()))?,
            );
            Ok(match op {
                BinOp::Add => Value::Real(x + y),
                BinOp::Sub => Value::Real(x - y),
                BinOp::Mul => Value::Real(x * y),
                BinOp::Div => {
                    if y == 0.0 {
                        Value::Null
                    } else {
                        Value::Real(x / y)
                    }
                }
                _ => unreachable!(),
            })
        }
    }
}

fn eval(expr: &Expr, ctx: &Ctx<'_>, params: &[Value]) -> Result<Value> {
    match expr {
        Expr::Lit(v) => Ok(v.clone()),
        Expr::Param(i) => params
            .get(*i)
            .cloned()
            .ok_or_else(|| DbError::Schema(format!("missing bind parameter {}", i + 1))),
        Expr::Col(q, name) => ctx.resolve(q.as_deref(), name),
        Expr::Neg(e) => match eval(e, ctx, params)? {
            Value::Int(i) => Ok(Value::Int(-i)),
            Value::Real(r) => Ok(Value::Real(-r)),
            Value::Null => Ok(Value::Null),
            _ => Err(DbError::Type("negation of non-number".into())),
        },
        Expr::Not(e) => Ok(Value::Int(!eval(e, ctx, params)?.is_truthy() as i64)),
        Expr::InList(e, list) => {
            let v = eval(e, ctx, params)?;
            if matches!(v, Value::Null) {
                return Ok(Value::Null);
            }
            for item in list {
                if v.sql_eq(&eval(item, ctx, params)?) {
                    return Ok(Value::Int(1));
                }
            }
            Ok(Value::Int(0))
        }
        Expr::Between(e, lo, hi) => {
            let v = eval(e, ctx, params)?;
            let lo = eval(lo, ctx, params)?;
            let hi = eval(hi, ctx, params)?;
            if matches!(v, Value::Null) {
                return Ok(Value::Null);
            }
            let ok = v.sort_cmp(&lo) != std::cmp::Ordering::Less
                && v.sort_cmp(&hi) != std::cmp::Ordering::Greater;
            Ok(Value::Int(ok as i64))
        }
        Expr::Bin(op, l, r) => {
            match op {
                BinOp::And => {
                    return Ok(Value::Int(
                        (eval(l, ctx, params)?.is_truthy() && eval(r, ctx, params)?.is_truthy())
                            as i64,
                    ));
                }
                BinOp::Or => {
                    return Ok(Value::Int(
                        (eval(l, ctx, params)?.is_truthy() || eval(r, ctx, params)?.is_truthy())
                            as i64,
                    ));
                }
                _ => {}
            }
            let a = eval(l, ctx, params)?;
            let b = eval(r, ctx, params)?;
            match op {
                BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => arith(*op, &a, &b),
                BinOp::Like => match (&a, &b) {
                    (Value::Text(t), Value::Text(p)) => Ok(Value::Int(like_match(p, t) as i64)),
                    _ => Ok(Value::Int(0)),
                },
                cmp => {
                    if matches!(a, Value::Null) || matches!(b, Value::Null) {
                        return Ok(Value::Null);
                    }
                    let ord = a.sort_cmp(&b);
                    let ok = match cmp {
                        BinOp::Eq => ord == std::cmp::Ordering::Equal,
                        BinOp::Ne => ord != std::cmp::Ordering::Equal,
                        BinOp::Lt => ord == std::cmp::Ordering::Less,
                        BinOp::Le => ord != std::cmp::Ordering::Greater,
                        BinOp::Gt => ord == std::cmp::Ordering::Greater,
                        BinOp::Ge => ord != std::cmp::Ordering::Less,
                        _ => unreachable!(),
                    };
                    Ok(Value::Int(ok as i64))
                }
            }
        }
        Expr::Agg(..) => Err(DbError::Schema("aggregate in row context".into())),
    }
}

fn eval_const(expr: &Expr, params: &[Value]) -> Result<Value> {
    let ctx = Ctx {
        bindings: &[],
        rows: Vec::new(),
    };
    eval(expr, &ctx, params)
}

// --- access paths -------------------------------------------------------------

/// Flattens a WHERE tree into AND-ed conjuncts.
fn conjuncts(expr: &Expr, out: &mut Vec<Expr>) {
    match expr {
        Expr::Bin(BinOp::And, l, r) => {
            conjuncts(l, out);
            conjuncts(r, out);
        }
        other => out.push(other.clone()),
    }
}

/// A sargable predicate `col <op> constant` on the given relation alias.
struct Sarg {
    col: String,
    op: BinOp,
    value: Value,
}

fn extract_sargs(where_: Option<&Expr>, alias: &str, params: &[Value]) -> Vec<Sarg> {
    let mut conj = Vec::new();
    if let Some(w) = where_ {
        conjuncts(w, &mut conj);
    }
    let mut out = Vec::new();
    for c in conj {
        let Expr::Bin(op, l, r) = &c else { continue };
        let flip = |op: BinOp| match op {
            BinOp::Lt => BinOp::Gt,
            BinOp::Le => BinOp::Ge,
            BinOp::Gt => BinOp::Lt,
            BinOp::Ge => BinOp::Le,
            other => other,
        };
        let (col, op, vexpr) = match (l.as_ref(), r.as_ref()) {
            (Expr::Col(q, name), v) if is_const(v) => {
                if q.as_deref()
                    .map(|q| !q.eq_ignore_ascii_case(alias))
                    .unwrap_or(false)
                {
                    continue;
                }
                (name.clone(), *op, v)
            }
            (v, Expr::Col(q, name)) if is_const(v) => {
                if q.as_deref()
                    .map(|q| !q.eq_ignore_ascii_case(alias))
                    .unwrap_or(false)
                {
                    continue;
                }
                (name.clone(), flip(*op), v)
            }
            _ => continue,
        };
        if !matches!(
            op,
            BinOp::Eq | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        ) {
            continue;
        }
        if let Ok(value) = eval_const(vexpr, params) {
            out.push(Sarg { col, op, value });
        }
    }
    out
}

fn is_const(e: &Expr) -> bool {
    match e {
        Expr::Lit(_) | Expr::Param(_) => true,
        Expr::Neg(i) => is_const(i),
        Expr::Bin(BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div, l, r) => {
            is_const(l) && is_const(r)
        }
        _ => false,
    }
}

/// Materializes a row: record columns, rowid alias filled from the key.
fn materialize(info: &TableInfo, rowid: i64, rec: &[u8]) -> Result<Vec<Value>> {
    let mut vals = decode_record(rec)?;
    vals.resize(info.cols.len(), Value::Null);
    if let Some(i) = info.rowid_alias {
        vals[i] = Value::Int(rowid);
    }
    Ok(vals)
}

/// Scans `info`'s rows using the cheapest access path the sargs allow.
/// Residual filtering is always applied by the caller.
pub fn scan_table<D: BlockDevice>(
    pager: &mut Pager<D>,
    catalog: &Catalog,
    info: &TableInfo,
    alias: &str,
    where_: Option<&Expr>,
    params: &[Value],
) -> Result<Vec<(i64, Vec<Value>)>> {
    let sargs = extract_sargs(where_, alias, params);
    // 1. Rowid-alias point lookup.
    if let Some(pk) = info.rowid_alias {
        let pk_name = &info.cols[pk].name;
        if let Some(s) = sargs
            .iter()
            .find(|s| s.op == BinOp::Eq && s.col.eq_ignore_ascii_case(pk_name))
        {
            if let Some(rowid) = s.value.as_i64() {
                return match btree::table_get(pager, info.root, rowid)? {
                    Some(rec) => Ok(vec![(rowid, materialize(info, rowid, &rec)?)]),
                    None => Ok(Vec::new()),
                };
            }
        }
        // Rowid range scan.
        let mut lo = i64::MIN;
        let mut hi = i64::MAX;
        let mut ranged = false;
        for s in &sargs {
            if !s.col.eq_ignore_ascii_case(pk_name) {
                continue;
            }
            let Some(v) = s.value.as_i64() else { continue };
            match s.op {
                BinOp::Gt => {
                    lo = lo.max(v.saturating_add(1));
                    ranged = true;
                }
                BinOp::Ge => {
                    lo = lo.max(v);
                    ranged = true;
                }
                BinOp::Lt => {
                    hi = hi.min(v.saturating_sub(1));
                    ranged = true;
                }
                BinOp::Le => {
                    hi = hi.min(v);
                    ranged = true;
                }
                _ => {}
            }
        }
        if ranged {
            let mut out = Vec::new();
            btree::table_scan_from(pager, info.root, lo, &mut |_, rowid, rec| {
                if rowid > hi {
                    return Ok(false);
                }
                out.push((rowid, rec));
                Ok(true)
            })?;
            return out
                .into_iter()
                .map(|(rowid, rec)| Ok((rowid, materialize(info, rowid, &rec)?)))
                .collect();
        }
    }
    // 2. Index equality-prefix scan.
    let mut best: Option<(IndexInfo, Vec<Value>)> = None;
    for ix in catalog.indexes_of(&info.name) {
        let mut prefix = Vec::new();
        for col in &ix.cols {
            match sargs
                .iter()
                .find(|s| s.op == BinOp::Eq && s.col.eq_ignore_ascii_case(col))
            {
                Some(s) => prefix.push(s.value.clone()),
                None => break,
            }
        }
        if !prefix.is_empty() && best.as_ref().is_none_or(|(_, p)| prefix.len() > p.len()) {
            best = Some((ix, prefix));
        }
    }
    if let Some((ix, prefix_vals)) = best {
        let prefix = encode_index_prefix(&prefix_vals);
        let mut rowids = Vec::new();
        btree::index_scan_from(pager, ix.root, &prefix, &mut |key| {
            if !key.starts_with(&prefix) {
                return Ok(false);
            }
            rowids.push(index_key_rowid(key)?);
            Ok(true)
        })?;
        let mut out = Vec::with_capacity(rowids.len());
        for rowid in rowids {
            if let Some(rec) = btree::table_get(pager, info.root, rowid)? {
                out.push((rowid, materialize(info, rowid, &rec)?));
            }
        }
        return Ok(out);
    }
    // 3. Full scan.
    let mut raw = Vec::new();
    btree::table_scan_from(pager, info.root, i64::MIN, &mut |_, rowid, rec| {
        raw.push((rowid, rec));
        Ok(true)
    })?;
    raw.into_iter()
        .map(|(rowid, rec)| Ok((rowid, materialize(info, rowid, &rec)?)))
        .collect()
}

// --- DML ----------------------------------------------------------------------

fn index_keys_for(info: &TableInfo, ix: &IndexInfo, row: &[Value], rowid: i64) -> Vec<u8> {
    let _ = info;
    let vals: Vec<Value> = ix.col_idxs.iter().map(|&i| row[i].clone()).collect();
    encode_index_key(&vals, rowid)
}

/// `row`'s key in each index of `table`, each checked to fit an index
/// page, so a row whose key is too large fails before it writes a page.
fn checked_index_keys<D: BlockDevice>(
    pager: &Pager<D>,
    catalog: &Catalog,
    table: &str,
    info: &TableInfo,
    row: &[Value],
    rowid: i64,
) -> Result<Vec<(IndexInfo, Vec<u8>)>> {
    catalog
        .indexes_of(table)
        .into_iter()
        .map(|ix| {
            let key = index_keys_for(info, &ix, row, rowid);
            btree::check_index_key(pager.page_size(), &key)?;
            Ok((ix, key))
        })
        .collect()
}

fn insert_row<D: BlockDevice>(
    pager: &mut Pager<D>,
    catalog: &mut Catalog,
    table: &str,
    row: Vec<Value>,
    or_replace: bool,
) -> Result<()> {
    let info = catalog.table(table)?.clone();
    // Pick the rowid.
    let rowid = match info.rowid_alias.and_then(|i| row[i].as_i64()) {
        Some(explicit) => explicit,
        None => info.next_rowid,
    };
    let keys = checked_index_keys(pager, catalog, table, &info, &row, rowid)?;
    let existing = btree::table_get(pager, info.root, rowid)?;
    if existing.is_some() && !or_replace {
        return Err(DbError::Constraint(format!("{table} rowid {rowid}")));
    }
    if let Some(old_rec) = existing {
        let old_row = materialize(&info, rowid, &old_rec)?;
        for ix in catalog.indexes_of(table) {
            let key = index_keys_for(&info, &ix, &old_row, rowid);
            btree::index_delete(pager, ix.root, &key)?;
        }
    }
    // Store Null in place of the rowid alias (read back from the key).
    let mut stored = row.clone();
    if let Some(i) = info.rowid_alias {
        stored[i] = Value::Null;
    }
    let rec = encode_record(&stored);
    btree::table_insert(pager, info.root, rowid, &rec)?;
    for (ix, key) in keys {
        btree::index_insert(pager, ix.root, &key)?;
    }
    let tinfo = catalog.table_mut(table)?;
    tinfo.next_rowid = tinfo.next_rowid.max(rowid + 1);
    Ok(())
}

fn delete_row<D: BlockDevice>(
    pager: &mut Pager<D>,
    catalog: &Catalog,
    info: &TableInfo,
    rowid: i64,
    row: &[Value],
) -> Result<()> {
    for ix in catalog.indexes_of(&info.name) {
        let key = index_keys_for(info, &ix, row, rowid);
        btree::index_delete(pager, ix.root, &key)?;
    }
    btree::table_delete(pager, info.root, rowid)?;
    Ok(())
}

// --- SELECT -------------------------------------------------------------------

fn has_aggregate(items: &[SelectItem]) -> bool {
    items
        .iter()
        .any(|it| matches!(it, SelectItem::Expr(Expr::Agg(..), _)))
}

fn item_name(item: &SelectItem, idx: usize) -> String {
    match item {
        SelectItem::Star => "*".into(),
        SelectItem::Expr(Expr::Col(_, name), None) => name.clone(),
        SelectItem::Expr(_, Some(alias)) => alias.clone(),
        SelectItem::Expr(..) => format!("col{idx}"),
    }
}

struct Joined {
    bindings: Vec<Binding>,
    /// Each tuple holds one row per binding.
    tuples: Vec<Vec<Vec<Value>>>,
}

fn join_tables<D: BlockDevice>(
    pager: &mut Pager<D>,
    catalog: &Catalog,
    from: &TableRef,
    joins: &[(TableRef, Expr)],
    where_: Option<&Expr>,
    params: &[Value],
) -> Result<Joined> {
    let base_info = catalog.table(&from.table)?.clone();
    let base_alias = from.alias.clone().unwrap_or_else(|| from.table.clone());
    let mut bindings = vec![Binding {
        alias: base_alias.clone(),
        cols: base_info.cols.iter().map(|c| c.name.clone()).collect(),
    }];
    let mut tuples: Vec<Vec<Vec<Value>>> =
        scan_table(pager, catalog, &base_info, &base_alias, where_, params)?
            .into_iter()
            .map(|(_, row)| vec![row])
            .collect();
    for (tref, on) in joins {
        let info = catalog.table(&tref.table)?.clone();
        let alias = tref.alias.clone().unwrap_or_else(|| tref.table.clone());
        // The inner relation is scanned per outer tuple; sargs from the ON
        // clause referencing only the inner table are handled inside
        // scan_table when constant. Equality to outer columns is resolved
        // by pre-evaluating the outer side.
        let inner_rows = scan_table(pager, catalog, &info, &alias, None, params)?;
        let inner_cols: Vec<String> = info.cols.iter().map(|c| c.name.clone()).collect();
        bindings.push(Binding {
            alias: alias.clone(),
            cols: inner_cols,
        });
        let mut next = Vec::new();
        for tuple in tuples {
            for (_, inner) in &inner_rows {
                let mut rows: Vec<&[Value]> = tuple.iter().map(Vec::as_slice).collect();
                rows.push(inner.as_slice());
                let ctx = Ctx {
                    bindings: &bindings,
                    rows,
                };
                if eval(on, &ctx, params)?.is_truthy() {
                    let mut t = tuple.clone();
                    t.push(inner.clone());
                    next.push(t);
                }
            }
        }
        tuples = next;
    }
    Ok(Joined { bindings, tuples })
}

#[allow(clippy::too_many_arguments)]
fn run_select<D: BlockDevice>(
    pager: &mut Pager<D>,
    catalog: &Catalog,
    items: &[SelectItem],
    from: Option<&TableRef>,
    joins: &[(TableRef, Expr)],
    where_: Option<&Expr>,
    group_by: &[String],
    having: Option<&Expr>,
    order_by: Option<&(String, bool)>,
    limit: Option<u64>,
    offset: u64,
    params: &[Value],
) -> Result<ExecOutcome> {
    let joined = match from {
        Some(f) => join_tables(pager, catalog, f, joins, where_, params)?,
        None => Joined {
            bindings: Vec::new(),
            tuples: vec![Vec::new()],
        },
    };
    // Residual WHERE over the joined tuples.
    let mut kept: Vec<Vec<Vec<Value>>> = Vec::new();
    for tuple in joined.tuples {
        let rows: Vec<&[Value]> = tuple.iter().map(Vec::as_slice).collect();
        let ctx = Ctx {
            bindings: &joined.bindings,
            rows,
        };
        let ok = match where_ {
            Some(w) => eval(w, &ctx, params)?.is_truthy(),
            None => true,
        };
        if ok {
            kept.push(tuple);
        }
    }

    if !group_by.is_empty() {
        return run_grouped(
            &joined.bindings,
            kept,
            items,
            group_by,
            having,
            order_by,
            limit,
            offset,
            params,
        );
    }

    if has_aggregate(items) {
        let mut out_row = Vec::new();
        let mut columns = Vec::new();
        for (i, item) in items.iter().enumerate() {
            columns.push(item_name(item, i));
            let SelectItem::Expr(expr, _) = item else {
                return Err(DbError::Schema("* mixed with aggregates".into()));
            };
            out_row.push(eval_aggregate(expr, &joined.bindings, &kept, params)?);
        }
        return Ok(ExecOutcome::Rows {
            columns,
            rows: vec![out_row],
        });
    }

    // ORDER BY before projection (the sort key may not be projected).
    if let Some((col, desc)) = order_by {
        let mut keyed: Vec<(Value, Vec<Vec<Value>>)> = Vec::with_capacity(kept.len());
        for tuple in kept {
            let rows: Vec<&[Value]> = tuple.iter().map(Vec::as_slice).collect();
            let ctx = Ctx {
                bindings: &joined.bindings,
                rows,
            };
            keyed.push((ctx.resolve(None, col)?, tuple));
        }
        keyed.sort_by(|a, b| a.0.sort_cmp(&b.0));
        if *desc {
            keyed.reverse();
        }
        kept = keyed.into_iter().map(|(_, t)| t).collect();
    }
    if offset > 0 {
        kept.drain(..(offset as usize).min(kept.len()));
    }
    if let Some(n) = limit {
        kept.truncate(n as usize);
    }

    // Projection.
    let mut columns = Vec::new();
    for (i, item) in items.iter().enumerate() {
        match item {
            SelectItem::Star => {
                for b in &joined.bindings {
                    columns.extend(b.cols.iter().cloned());
                }
            }
            _ => columns.push(item_name(item, i)),
        }
    }
    let mut rows = Vec::with_capacity(kept.len());
    for tuple in &kept {
        let ctx_rows: Vec<&[Value]> = tuple.iter().map(Vec::as_slice).collect();
        let ctx = Ctx {
            bindings: &joined.bindings,
            rows: ctx_rows,
        };
        let mut out = Vec::new();
        for item in items {
            match item {
                SelectItem::Star => {
                    for row in tuple {
                        out.extend(row.iter().cloned());
                    }
                }
                SelectItem::Expr(e, _) => out.push(eval(e, &ctx, params)?),
            }
        }
        rows.push(out);
    }
    Ok(ExecOutcome::Rows { columns, rows })
}

/// GROUP BY execution: partition the kept tuples by the grouping key,
/// evaluate each select item per group (aggregates over the group's
/// tuples, other expressions against its first tuple — SQLite's
/// permissive bare-column semantics).
#[allow(clippy::too_many_arguments)]
fn run_grouped(
    bindings: &[Binding],
    kept: Vec<Vec<Vec<Value>>>,
    items: &[SelectItem],
    group_by: &[String],
    having: Option<&Expr>,
    order_by: Option<&(String, bool)>,
    limit: Option<u64>,
    offset: u64,
    params: &[Value],
) -> Result<ExecOutcome> {
    use crate::record::encode_index_prefix;
    // Stable grouping via the order-preserving key encoding.
    let mut groups: std::collections::BTreeMap<Vec<u8>, Vec<Vec<Vec<Value>>>> =
        std::collections::BTreeMap::new();
    for tuple in kept {
        let rows: Vec<&[Value]> = tuple.iter().map(Vec::as_slice).collect();
        let ctx = Ctx { bindings, rows };
        let key_vals: Vec<Value> = group_by
            .iter()
            .map(|c| ctx.resolve(None, c))
            .collect::<Result<Vec<_>>>()?;
        groups
            .entry(encode_index_prefix(&key_vals))
            .or_default()
            .push(tuple);
    }
    let mut columns = Vec::new();
    for (i, item) in items.iter().enumerate() {
        if matches!(item, SelectItem::Star) {
            return Err(DbError::Schema("* in a GROUP BY select list".into()));
        }
        columns.push(item_name(item, i));
    }
    let mut rows = Vec::with_capacity(groups.len());
    for tuples in groups.into_values() {
        if let Some(h) = having {
            if !eval_aggregate(h, bindings, &tuples, params)?.is_truthy() {
                continue;
            }
        }
        let mut out = Vec::with_capacity(items.len());
        for item in items {
            let SelectItem::Expr(expr, _) = item else {
                unreachable!()
            };
            out.push(eval_aggregate(expr, bindings, &tuples, params)?);
        }
        rows.push(out);
    }
    // ORDER BY over the projected output (by column name / alias).
    if let Some((col, desc)) = order_by {
        if let Some(idx) = columns.iter().position(|c| c.eq_ignore_ascii_case(col)) {
            rows.sort_by(|a, b| a[idx].sort_cmp(&b[idx]));
            if *desc {
                rows.reverse();
            }
        }
    }
    if offset > 0 {
        rows.drain(..(offset as usize).min(rows.len()));
    }
    if let Some(n) = limit {
        rows.truncate(n as usize);
    }
    Ok(ExecOutcome::Rows { columns, rows })
}

fn eval_aggregate(
    expr: &Expr,
    bindings: &[Binding],
    tuples: &[Vec<Vec<Value>>],
    params: &[Value],
) -> Result<Value> {
    let Expr::Agg(f, arg, distinct) = expr else {
        // Comparisons and arithmetic over aggregates (e.g. HAVING
        // COUNT(*) > 1) recurse; bare columns evaluate against the first
        // tuple (SQLite's permissive behaviour).
        if let Expr::Bin(op, l, r) = expr {
            let a = eval_aggregate(l, bindings, tuples, params)?;
            let b = eval_aggregate(r, bindings, tuples, params)?;
            return eval(
                &Expr::Bin(*op, Box::new(Expr::Lit(a)), Box::new(Expr::Lit(b))),
                &Ctx {
                    bindings,
                    rows: Vec::new(),
                },
                params,
            );
        }
        let rows: Vec<&[Value]> = match tuples.first() {
            Some(t) => t.iter().map(Vec::as_slice).collect(),
            None => return Ok(Value::Null),
        };
        return eval(expr, &Ctx { bindings, rows }, params);
    };
    let mut vals = Vec::new();
    for tuple in tuples {
        let rows: Vec<&[Value]> = tuple.iter().map(Vec::as_slice).collect();
        let ctx = Ctx { bindings, rows };
        match arg {
            None => vals.push(Value::Int(1)),
            Some(a) => {
                let v = eval(a, &ctx, params)?;
                if !matches!(v, Value::Null) {
                    vals.push(v);
                }
            }
        }
    }
    if *distinct {
        let mut seen = HashSet::new();
        vals.retain(|v| seen.insert(format!("{v:?}")));
    }
    Ok(match f {
        AggFn::Count => Value::Int(vals.len() as i64),
        AggFn::Sum => {
            if vals.is_empty() {
                Value::Null
            } else if vals.iter().all(|v| matches!(v, Value::Int(_))) {
                Value::Int(vals.iter().filter_map(Value::as_i64).sum())
            } else {
                Value::Real(vals.iter().filter_map(Value::as_f64).sum())
            }
        }
        AggFn::Avg => {
            if vals.is_empty() {
                Value::Null
            } else {
                let sum: f64 = vals.iter().filter_map(Value::as_f64).sum();
                Value::Real(sum / vals.len() as f64)
            }
        }
        AggFn::Min => vals
            .iter()
            .cloned()
            .min_by(Value::sort_cmp)
            .unwrap_or(Value::Null),
        AggFn::Max => vals
            .iter()
            .cloned()
            .max_by(Value::sort_cmp)
            .unwrap_or(Value::Null),
    })
}

// --- entry point -----------------------------------------------------------------

/// Executes one non-transaction-control statement.
pub fn run_stmt<D: BlockDevice>(
    pager: &mut Pager<D>,
    catalog: &mut Catalog,
    stmt: &Stmt,
    params: &[Value],
    raw_sql: &str,
) -> Result<ExecOutcome> {
    match stmt {
        Stmt::CreateTable {
            name,
            if_not_exists,
            cols,
        } => {
            if *if_not_exists && catalog.has_table(name) {
                return Ok(ExecOutcome::Done { rows_affected: 0 });
            }
            catalog.create_table(pager, name, cols, raw_sql)?;
            Ok(ExecOutcome::Done { rows_affected: 0 })
        }
        Stmt::CreateIndex {
            name,
            if_not_exists,
            table,
            cols,
        } => {
            match catalog.create_index(pager, name, table, cols, raw_sql) {
                Err(DbError::Exists(_)) if *if_not_exists => {
                    return Ok(ExecOutcome::Done { rows_affected: 0 });
                }
                other => other?,
            }
            // Populate the index from existing rows.
            let info = catalog.table(table)?.clone();
            let rows = scan_table(pager, catalog, &info, table, None, params)?;
            let ix = catalog
                .indexes_of(table)
                .into_iter()
                .find(|i| i.name.eq_ignore_ascii_case(name))
                .ok_or(DbError::Corrupt("index vanished after creation"))?;
            for (rowid, row) in rows {
                let key = index_keys_for(&info, &ix, &row, rowid);
                btree::index_insert(pager, ix.root, &key)?;
            }
            Ok(ExecOutcome::Done { rows_affected: 0 })
        }
        Stmt::DropTable { name } => {
            catalog.drop_table(pager, name)?;
            Ok(ExecOutcome::Done { rows_affected: 0 })
        }
        Stmt::DropIndex { name } => {
            catalog.drop_index(pager, name)?;
            Ok(ExecOutcome::Done { rows_affected: 0 })
        }
        Stmt::Insert {
            table,
            cols,
            rows,
            or_replace,
        } => {
            let info = catalog.table(table)?.clone();
            let positions: Vec<usize> = if cols.is_empty() {
                (0..info.cols.len()).collect()
            } else {
                cols.iter()
                    .map(|c| {
                        info.col_index(c)
                            .ok_or_else(|| DbError::Unknown(format!("{table}.{c}")))
                    })
                    .collect::<Result<Vec<_>>>()?
            };
            let mut n = 0;
            for row_exprs in rows {
                if row_exprs.len() != positions.len() {
                    return Err(DbError::Schema(format!(
                        "{} values for {} columns",
                        row_exprs.len(),
                        positions.len()
                    )));
                }
                let mut row = vec![Value::Null; info.cols.len()];
                for (pos, e) in positions.iter().zip(row_exprs) {
                    row[*pos] = eval_const(e, params)?;
                }
                insert_row(pager, catalog, table, row, *or_replace)?;
                n += 1;
            }
            Ok(ExecOutcome::Done { rows_affected: n })
        }
        Stmt::Select {
            items,
            from,
            joins,
            where_,
            group_by,
            having,
            order_by,
            limit,
            offset,
        } => run_select(
            pager,
            catalog,
            items,
            from.as_ref(),
            joins,
            where_.as_ref(),
            group_by,
            having.as_ref(),
            order_by.as_ref(),
            *limit,
            *offset,
            params,
        ),
        Stmt::Update {
            table,
            sets,
            where_,
        } => {
            let info = catalog.table(table)?.clone();
            let matches = scan_table(pager, catalog, &info, table, where_.as_ref(), params)?;
            let bindings = vec![Binding {
                alias: info.name.clone(),
                cols: info.cols.iter().map(|c| c.name.clone()).collect(),
            }];
            let set_idx: Vec<(usize, &Expr)> = sets
                .iter()
                .map(|(c, e)| {
                    info.col_index(c)
                        .map(|i| (i, e))
                        .ok_or_else(|| DbError::Unknown(format!("{table}.{c}")))
                })
                .collect::<Result<Vec<_>>>()?;
            let mut n = 0;
            for (rowid, old_row) in matches {
                // Residual filter (scan_table already applied sargs only).
                let ctx = Ctx {
                    bindings: &bindings,
                    rows: vec![old_row.as_slice()],
                };
                if let Some(w) = where_ {
                    if !eval(w, &ctx, params)?.is_truthy() {
                        continue;
                    }
                }
                let mut new_row = old_row.clone();
                for (i, e) in &set_idx {
                    new_row[*i] = eval(e, &ctx, params)?;
                }
                let new_rowid = info
                    .rowid_alias
                    .and_then(|i| new_row[i].as_i64())
                    .unwrap_or(rowid);
                let new_keys =
                    checked_index_keys(pager, catalog, table, &info, &new_row, new_rowid)?;
                if new_rowid == rowid {
                    // In-place update: touch only the indexes whose key
                    // actually changed (as SQLite does).
                    for (ix, new_key) in new_keys {
                        let old_key = index_keys_for(&info, &ix, &old_row, rowid);
                        if old_key != new_key {
                            btree::index_delete(pager, ix.root, &old_key)?;
                            btree::index_insert(pager, ix.root, &new_key)?;
                        }
                    }
                    let mut stored = new_row.clone();
                    if let Some(i) = info.rowid_alias {
                        stored[i] = Value::Null;
                    }
                    btree::table_insert(pager, info.root, rowid, &encode_record(&stored))?;
                } else {
                    delete_row(pager, catalog, &info, rowid, &old_row)?;
                    let mut stored = new_row.clone();
                    if let Some(i) = info.rowid_alias {
                        stored[i] = Value::Int(new_rowid);
                    }
                    insert_row(pager, catalog, table, stored, true)?;
                }
                n += 1;
            }
            Ok(ExecOutcome::Done { rows_affected: n })
        }
        Stmt::Delete { table, where_ } => {
            let info = catalog.table(table)?.clone();
            let matches = scan_table(pager, catalog, &info, table, where_.as_ref(), params)?;
            let bindings = vec![Binding {
                alias: info.name.clone(),
                cols: info.cols.iter().map(|c| c.name.clone()).collect(),
            }];
            let mut n = 0;
            for (rowid, row) in matches {
                let ctx = Ctx {
                    bindings: &bindings,
                    rows: vec![row.as_slice()],
                };
                if let Some(w) = where_ {
                    if !eval(w, &ctx, params)?.is_truthy() {
                        continue;
                    }
                }
                delete_row(pager, catalog, &info, rowid, &row)?;
                n += 1;
            }
            Ok(ExecOutcome::Done { rows_affected: n })
        }
        Stmt::Begin | Stmt::BeginConcurrent | Stmt::Commit | Stmt::Rollback => Err(
            DbError::TxState("transaction control handled by the connection"),
        ),
    }
}

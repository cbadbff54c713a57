//! Baselines for E7 (§4.1): the nested constructor evaluation and the
//! external XMLAGG ORDER BY sort that `rx_engine::construct`'s tagging
//! templates and linked-list quicksort replace.

use rx_engine::construct::{Ctor, ValueExpr};

/// The standard nested evaluation the paper rejects: "evaluate the arguments
/// first, then evaluate the function … it will either involve small data
/// items linked by pointers or need multiple copies of the same data items."
/// This baseline re-materializes every tag string for every row.
pub fn naive_construct_string(ctor: &Ctor, args: &[String]) -> String {
    fn value(v: &ValueExpr, args: &[String]) -> String {
        match v {
            ValueExpr::Column(i) => args.get(*i).cloned().unwrap_or_default(),
            ValueExpr::Literal(s) => s.clone(),
            ValueExpr::Concat(vs) => {
                // Per-row intermediate copies — the cost being measured.
                let parts: Vec<String> = vs.iter().map(|v| value(v, args)).collect();
                parts.concat()
            }
        }
    }
    fn esc(s: &str) -> String {
        let mut out = String::new();
        rx_xml::serialize::escape_text(s, &mut out);
        out
    }
    match ctor {
        Ctor::Element {
            name,
            attrs,
            content,
        } => {
            let mut s = format!("<{name}");
            for a in attrs {
                let mut v = String::new();
                rx_xml::serialize::escape_attr(&value(&a.value, args), &mut v);
                s.push_str(&format!(" {}=\"{v}\"", a.name));
            }
            if content.is_empty() {
                s.push_str("/>");
            } else {
                s.push('>');
                let inner: Vec<String> = content
                    .iter()
                    .map(|c| naive_construct_string(c, args))
                    .collect();
                s.push_str(&inner.concat());
                s.push_str(&format!("</{name}>"));
            }
            s
        }
        Ctor::Forest(items) => items
            .iter()
            .map(|(n, v)| {
                let body = esc(&value(v, args));
                if body.is_empty() {
                    format!("<{n}/>")
                } else {
                    format!("<{n}>{body}</{n}>")
                }
            })
            .collect::<Vec<String>>()
            .concat(),
        Ctor::Text(v) => esc(&value(v, args)),
        Ctor::Comment(v) => format!("<!--{}-->", value(v, args)),
    }
}

/// External-sort baseline for XMLAGG ORDER BY: the "traditional temporary
/// work files" path (§4.4) — each sorted run is written to a real heap table
/// on the buffer pool (the relational temp-file mechanism), then a k-way
/// merge re-reads rows record-by-record through the storage layer. The
/// overhead relative to the linked-list quicksort is exactly what §4.1 calls
/// "significant overhead": per-row materialization into and out of work
/// files.
pub fn external_sort_rows(
    mut rows: Vec<Vec<String>>,
    key_slot: usize,
    run_size: usize,
) -> Vec<Vec<String>> {
    use rx_storage::{BufferPool, FileBackend, HeapTable, Rid, TableSpace};

    fn encode(row: &[String]) -> Vec<u8> {
        let mut buf = Vec::with_capacity(16);
        buf.extend_from_slice(&(row.len() as u32).to_le_bytes());
        for v in row {
            buf.extend_from_slice(&(v.len() as u32).to_le_bytes());
            buf.extend_from_slice(v.as_bytes());
        }
        buf
    }
    fn decode(buf: &[u8]) -> Vec<String> {
        let mut pos = 0usize;
        let n = u32::from_le_bytes(buf[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 4;
        let mut row = Vec::with_capacity(n);
        for _ in 0..n {
            let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().unwrap()) as usize;
            pos += 4;
            row.push(String::from_utf8_lossy(&buf[pos..pos + len]).into_owned());
            pos += len;
        }
        row
    }

    // Work files are DISK-resident temporaries: file-backed spaces behind a
    // deliberately small buffer pool, so runs genuinely spill and the merge
    // re-reads pages from disk — the 2005 temp-work-file reality.
    let pool = BufferPool::new(128);
    let tmp = std::env::temp_dir().join(format!(
        "rx-workfiles-{}-{:p}",
        std::process::id(),
        &rows as *const _
    ));
    std::fs::create_dir_all(&tmp).expect("work-file dir");
    let total = rows.len();
    // Run formation: sort each bounded run, spill it to a work-file heap.
    let mut runs: Vec<(std::sync::Arc<HeapTable>, Vec<Rid>)> = Vec::new();
    let mut space_id = 1u32;
    while !rows.is_empty() {
        let take = rows.len().min(run_size);
        let mut run: Vec<Vec<String>> = rows.drain(..take).collect();
        run.sort_by(|a, b| a.get(key_slot).cmp(&b.get(key_slot)));
        let backend =
            FileBackend::open(&tmp.join(format!("run-{space_id}.dat"))).expect("work file");
        let space = TableSpace::create(pool.clone(), space_id, std::sync::Arc::new(backend))
            .expect("work-file space");
        space_id += 1;
        let heap = HeapTable::create(space).expect("work-file heap");
        let mut rids = Vec::with_capacity(run.len());
        for row in &run {
            rids.push(heap.insert(&encode(row)).expect("work-file write"));
        }
        runs.push((heap, rids));
    }
    // K-way merge, re-reading each row from its work file.
    struct Cursor {
        next: usize,
        current: Option<Vec<String>>,
    }
    let mut cursors: Vec<Cursor> = runs
        .iter()
        .map(|(heap, rids)| {
            let current = rids
                .first()
                .map(|rid| decode(&heap.fetch(*rid).expect("work-file read")));
            Cursor { next: 1, current }
        })
        .collect();
    let mut out = Vec::with_capacity(total);
    for _ in 0..total {
        let mut best: Option<usize> = None;
        for (r, c) in cursors.iter().enumerate() {
            let Some(row) = &c.current else { continue };
            best = match best {
                None => Some(r),
                Some(b) => {
                    if row.get(key_slot) < cursors[b].current.as_ref().unwrap().get(key_slot) {
                        Some(r)
                    } else {
                        Some(b)
                    }
                }
            };
        }
        let b = best.expect("total counted");
        let row = cursors[b].current.take().expect("best has a row");
        let (heap, rids) = &runs[b];
        if cursors[b].next < rids.len() {
            cursors[b].current = Some(decode(&heap.fetch(rids[cursors[b].next]).expect("read")));
            cursors[b].next += 1;
        }
        out.push(row);
    }
    drop(runs);
    let _ = std::fs::remove_dir_all(&tmp);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rx_engine::construct::{fig5_emp_ctor, Constructed, Template};
    use rx_xml::name::NameDict;
    use std::sync::Arc;

    #[test]
    fn template_matches_naive_output() {
        let dict = NameDict::new();
        let ctor = fig5_emp_ctor();
        let tpl = Template::compile(&ctor, &dict).unwrap();
        for i in 0..50 {
            let args = vec![
                format!("{i}"),
                format!("First{i}"),
                format!("Last{i}"),
                "2005-06-16".to_string(),
                format!("Dept{}", i % 5),
            ];
            let fast = Constructed::new(Arc::clone(&tpl), args.clone())
                .unwrap()
                .to_xml(&dict)
                .unwrap();
            let slow = naive_construct_string(&ctor, &args);
            assert_eq!(fast, slow, "row {i}");
        }
    }

    #[test]
    fn external_sort_agrees_with_quicksort() {
        let rows: Vec<Vec<String>> = (0..500)
            .map(|i| vec![format!("{:04}", (i * 31) % 500), format!("payload{i}")])
            .collect();
        let ext = external_sort_rows(rows.clone(), 0, 64);
        let mut quick = rows;
        quick.sort_by(|a, b| a[0].cmp(&b[0]));
        assert_eq!(ext, quick);
    }
}

//! SAX-style parsing interface — the per-event-callback **baseline**.
//!
//! §3.2: "Application domain interfaces for XML, such as SAX or DOM
//! interface, suffer from significant overhead of excessive procedure calls
//! for event handling or in-memory construction of intermediate data
//! structures."
//!
//! This module reproduces that overhead faithfully for the E4 experiment: a
//! classic [`SaxHandler`] receives one dynamically-dispatched callback per
//! event, with event data *materialized per call* (owned qname strings and a
//! freshly built attribute vector for every start tag), exactly as the
//! DOM/SAX application interfaces the paper measured against behave. The
//! engine's own path (parser → buffered token stream) avoids all of it.

use rx_xml::error::Result;
use rx_xml::event::{Event, EventSink};
use rx_xml::name::NameDict;
use rx_xml::parser::Parser;

/// A materialized SAX attribute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SaxAttribute {
    /// Namespace URI ("" when none).
    pub uri: String,
    /// Local name.
    pub local: String,
    /// Lexical qualified name (prefix:local).
    pub qname: String,
    /// Attribute value.
    pub value: String,
}

/// The classic callback interface. Every method is invoked through dynamic
/// dispatch once per event.
#[allow(unused_variables)]
pub trait SaxHandler {
    /// Document start.
    fn start_document(&mut self) -> Result<()> {
        Ok(())
    }
    /// Document end.
    fn end_document(&mut self) -> Result<()> {
        Ok(())
    }
    /// Element start with materialized names and attributes.
    fn start_element(
        &mut self,
        uri: &str,
        local: &str,
        qname: &str,
        attrs: &[SaxAttribute],
    ) -> Result<()> {
        Ok(())
    }
    /// Element end.
    fn end_element(&mut self, uri: &str, local: &str, qname: &str) -> Result<()> {
        Ok(())
    }
    /// Character data.
    fn characters(&mut self, text: &str) -> Result<()> {
        Ok(())
    }
    /// Comment.
    fn comment(&mut self, text: &str) -> Result<()> {
        Ok(())
    }
    /// Processing instruction.
    fn processing_instruction(&mut self, target: &str, data: &str) -> Result<()> {
        Ok(())
    }
}

struct SaxAdapter<'d, 'h> {
    dict: &'d NameDict,
    handler: &'h mut dyn SaxHandler,
    /// Pending element: SAX delivers attributes *with* startElement, so the
    /// adapter buffers them until the first non-attribute event.
    pending: Option<(String, String, String)>,
    pending_attrs: Vec<SaxAttribute>,
    open: Vec<(String, String, String)>,
}

impl SaxAdapter<'_, '_> {
    fn flush_pending(&mut self) -> Result<()> {
        if let Some((uri, local, qname)) = self.pending.take() {
            self.handler
                .start_element(&uri, &local, &qname, &self.pending_attrs)?;
            self.open.push((uri, local, qname));
            self.pending_attrs.clear();
        }
        Ok(())
    }

    fn materialize(&self, name: rx_xml::name::QNameId) -> (String, String, String) {
        // Per-event string materialization: this allocation cost is the point.
        let q = self.dict.qname(name);
        let uri = self.dict.str(q.uri).to_string();
        let local = self.dict.str(q.local).to_string();
        let prefix = self.dict.str(q.prefix);
        let qname = if prefix.is_empty() {
            local.clone()
        } else {
            format!("{prefix}:{local}")
        };
        (uri, local, qname)
    }
}

impl EventSink for SaxAdapter<'_, '_> {
    fn event(&mut self, ev: Event<'_>) -> Result<()> {
        match ev {
            Event::StartDocument => self.handler.start_document(),
            Event::EndDocument => {
                self.flush_pending()?;
                self.handler.end_document()
            }
            Event::StartElement { name } => {
                self.flush_pending()?;
                self.pending = Some(self.materialize(name));
                Ok(())
            }
            Event::NamespaceDecl { .. } => Ok(()),
            Event::Attribute { name, value, .. } => {
                let (uri, local, qname) = self.materialize(name);
                self.pending_attrs.push(SaxAttribute {
                    uri,
                    local,
                    qname,
                    value: value.to_string(),
                });
                Ok(())
            }
            Event::Text { value, .. } => {
                self.flush_pending()?;
                self.handler.characters(value)
            }
            Event::Comment { value } => {
                self.flush_pending()?;
                self.handler.comment(value)
            }
            Event::Pi { target, data } => {
                self.flush_pending()?;
                let (_, local, _) = self.materialize(target);
                self.handler.processing_instruction(&local, data)
            }
            Event::EndElement => {
                self.flush_pending()?;
                let (uri, local, qname) = self.open.pop().unwrap_or_default();
                self.handler.end_element(&uri, &local, &qname)
            }
        }
    }
}

/// Parse `input`, delivering classic SAX callbacks to `handler`.
pub fn parse_sax(input: &str, dict: &NameDict, handler: &mut dyn SaxHandler) -> Result<()> {
    let mut adapter = SaxAdapter {
        dict,
        handler,
        pending: None,
        pending_attrs: Vec::new(),
        open: Vec::new(),
    };
    Parser::new(dict).parse(input, &mut adapter)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Trace {
        log: Vec<String>,
    }

    impl SaxHandler for Trace {
        fn start_document(&mut self) -> Result<()> {
            self.log.push("startdoc".into());
            Ok(())
        }
        fn end_document(&mut self) -> Result<()> {
            self.log.push("enddoc".into());
            Ok(())
        }
        fn start_element(
            &mut self,
            uri: &str,
            _local: &str,
            qname: &str,
            attrs: &[SaxAttribute],
        ) -> Result<()> {
            let attr_str: Vec<String> = attrs
                .iter()
                .map(|a| format!("{}={}", a.qname, a.value))
                .collect();
            self.log
                .push(format!("start {uri}|{qname}[{}]", attr_str.join(",")));
            Ok(())
        }
        fn end_element(&mut self, _uri: &str, _local: &str, qname: &str) -> Result<()> {
            self.log.push(format!("end {qname}"));
            Ok(())
        }
        fn characters(&mut self, text: &str) -> Result<()> {
            self.log.push(format!("chars {text}"));
            Ok(())
        }
    }

    #[test]
    fn callbacks_deliver_materialized_events() {
        let dict = NameDict::new();
        let mut h = Trace::default();
        parse_sax(
            r#"<c:a xmlns:c="urn:c" id="1"><b>hi</b></c:a>"#,
            &dict,
            &mut h,
        )
        .unwrap();
        assert_eq!(
            h.log,
            vec![
                "startdoc",
                "start urn:c|c:a[id=1]",
                "start |b[]",
                "chars hi",
                "end b",
                "end c:a",
                "enddoc"
            ]
        );
    }

    #[test]
    fn empty_element_callbacks_balance() {
        let dict = NameDict::new();
        let mut h = Trace::default();
        parse_sax("<a><b/><b/></a>", &dict, &mut h).unwrap();
        let starts = h.log.iter().filter(|l| l.starts_with("start ")).count();
        let ends = h.log.iter().filter(|l| l.starts_with("end ")).count();
        assert_eq!(starts, 3);
        assert_eq!(ends, 3);
    }
}

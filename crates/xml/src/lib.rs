//! # rx-xml — the XML data model layer of System R/X
//!
//! Everything the paper's "XML services" column (Fig. 1) needs below query
//! processing:
//!
//! * [`name`] — the database-wide integer name dictionary (§3.1);
//! * [`nodeid`] — Dewey prefix-encoded node IDs with the even/odd byte
//!   stability scheme (§3.1);
//! * [`event`] — the virtual SAX event vocabulary shared by every runtime
//!   component (§4.4);
//! * [`token`] — the buffered binary token stream, the parsing/validation
//!   interface (§3.2);
//! * [`parser`] — the custom non-validating parser;
//! * [`schema`] — XML-Schema-subset compiler to a binary table format and the
//!   table-driven validation VM (§3.2, Fig. 4);
//! * [`serialize`] — the shared serializer;
//! * [`value`] — XDM atomic values, IEEE-754r-style decimals, and
//!   order-preserving index-key encodings (§3.3, §4.3);
//! * [`dom`] — the in-memory DOM tree: the materializing **baseline** the
//!   paper compares against, and the tree `schema::parse_xsd` reads.
//!
//! The per-event-callback SAX baseline lives in `rx-bench`.

#![warn(missing_docs)]

pub mod dom;
pub mod error;
pub mod event;
pub mod name;
pub mod nodeid;
pub mod parser;
pub mod schema;
pub mod serialize;
pub mod token;
pub mod value;

pub use error::{Result, XmlError};
pub use event::{Event, EventSink};
pub use name::{NameDict, QName, QNameId, StrId};
pub use nodeid::{NodeId, RelId};
pub use parser::{ParseOptions, Parser};
pub use serialize::Serializer;
pub use token::{TokenStream, TokenWriter};
pub use value::{AtomicValue, Date, Decimal, KeyType, TypeAnn};

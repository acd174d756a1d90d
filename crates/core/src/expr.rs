//! Parser for the `search()` offload API's query-expression strings
//! (Section IV-D): quoted terms combined with `AND`/`OR` and round
//! brackets, e.g. `"A" AND ("B" OR "C")`.

use boss_index::{Error, QueryExpr};

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Term(String),
    And,
    Or,
    LParen,
    RParen,
}

fn lex(input: &str) -> Result<Vec<Token>, Error> {
    let mut tokens = Vec::new();
    let mut chars = input.char_indices().peekable();
    while let Some(&(i, c)) = chars.peek() {
        match c {
            c if c.is_whitespace() => {
                chars.next();
            }
            '(' => {
                tokens.push(Token::LParen);
                chars.next();
            }
            ')' => {
                tokens.push(Token::RParen);
                chars.next();
            }
            '"' => {
                chars.next();
                let mut term = String::new();
                let mut closed = false;
                for (_, c) in chars.by_ref() {
                    if c == '"' {
                        closed = true;
                        break;
                    }
                    term.push(c);
                }
                if !closed {
                    return Err(Error::InvalidQuery {
                        reason: format!("unterminated quote at byte {i}"),
                    });
                }
                if term.is_empty() {
                    return Err(Error::InvalidQuery {
                        reason: "empty quoted term".into(),
                    });
                }
                tokens.push(Token::Term(term));
            }
            _ => {
                let mut word = String::new();
                while let Some(&(_, c)) = chars.peek() {
                    if c.is_alphanumeric() || c == '_' {
                        word.push(c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                match word.to_ascii_uppercase().as_str() {
                    "AND" => tokens.push(Token::And),
                    "OR" => tokens.push(Token::Or),
                    "" => {
                        return Err(Error::InvalidQuery {
                            reason: format!("unexpected character {c:?} at byte {i}"),
                        });
                    }
                    _ => {
                        return Err(Error::InvalidQuery {
                            reason: format!("bare word {word:?}; query terms must be quoted"),
                        });
                    }
                }
            }
        }
    }
    Ok(tokens)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    // or_expr := and_expr (OR and_expr)*
    fn or_expr(&mut self) -> Result<QueryExpr, Error> {
        let first = self.and_expr()?;
        if !matches!(self.peek(), Some(Token::Or)) {
            return Ok(first);
        }
        let mut subs = vec![first];
        while matches!(self.peek(), Some(Token::Or)) {
            self.next();
            subs.push(self.and_expr()?);
        }
        Ok(QueryExpr::Or(subs))
    }

    // and_expr := atom (AND atom)*
    fn and_expr(&mut self) -> Result<QueryExpr, Error> {
        let first = self.atom()?;
        if !matches!(self.peek(), Some(Token::And)) {
            return Ok(first);
        }
        let mut subs = vec![first];
        while matches!(self.peek(), Some(Token::And)) {
            self.next();
            subs.push(self.atom()?);
        }
        Ok(QueryExpr::And(subs))
    }

    fn atom(&mut self) -> Result<QueryExpr, Error> {
        match self.next() {
            Some(Token::Term(t)) => Ok(QueryExpr::Term(t)),
            Some(Token::LParen) => {
                let inner = self.or_expr()?;
                match self.next() {
                    Some(Token::RParen) => Ok(inner),
                    _ => Err(Error::InvalidQuery {
                        reason: "missing closing parenthesis".into(),
                    }),
                }
            }
            other => Err(Error::InvalidQuery {
                reason: format!("expected term or '(', found {other:?}"),
            }),
        }
    }
}

/// Parses a `search()` query-expression string into a [`QueryExpr`].
///
/// `AND` binds tighter than `OR`, matching conventional boolean-query
/// semantics; parentheses override.
///
/// # Errors
///
/// Returns [`Error::InvalidQuery`] for lexical or structural problems
/// (bare unquoted words, unbalanced parentheses, empty input).
///
/// # Example
///
/// ```
/// use boss_core::parse_query;
///
/// # fn main() -> Result<(), boss_index::Error> {
/// let q = parse_query(r#""scm" AND ("pool" OR "node")"#)?;
/// assert_eq!(q.terms(), vec!["scm", "pool", "node"]);
/// # Ok(())
/// # }
/// ```
pub fn parse_query(input: &str) -> Result<QueryExpr, Error> {
    let tokens = lex(input)?;
    if tokens.is_empty() {
        return Err(Error::InvalidQuery {
            reason: "empty query".into(),
        });
    }
    let mut p = Parser { tokens, pos: 0 };
    let expr = p.or_expr()?;
    if p.pos != p.tokens.len() {
        return Err(Error::InvalidQuery {
            reason: format!("trailing tokens after position {}", p.pos),
        });
    }
    Ok(expr)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;

    #[test]
    fn single_term() {
        assert_eq!(parse_query(r#""hello""#).unwrap(), QueryExpr::term("hello"));
    }

    #[test]
    fn and_binds_tighter_than_or() {
        let q = parse_query(r#""a" OR "b" AND "c""#).unwrap();
        assert_eq!(
            q,
            QueryExpr::or([
                QueryExpr::term("a"),
                QueryExpr::and([QueryExpr::term("b"), QueryExpr::term("c")]),
            ])
        );
    }

    #[test]
    fn parens_override() {
        let q = parse_query(r#"("a" OR "b") AND "c""#).unwrap();
        assert_eq!(
            q,
            QueryExpr::and([
                QueryExpr::or([QueryExpr::term("a"), QueryExpr::term("b")]),
                QueryExpr::term("c"),
            ])
        );
    }

    #[test]
    fn figure_example() {
        // The exact example from Section IV-D.
        let q = parse_query(r#""A" AND ("B" OR "C")"#).unwrap();
        assert_eq!(q.terms(), vec!["A", "B", "C"]);
    }

    #[test]
    fn keywords_case_insensitive() {
        let q = parse_query(r#""a" and "b" or "c""#).unwrap();
        assert_eq!(q.terms().len(), 3);
    }

    #[test]
    fn error_cases() {
        assert!(parse_query("").is_err());
        assert!(parse_query(r#""a" AND"#).is_err());
        assert!(parse_query(r#"("a" OR "b""#).is_err());
        assert!(parse_query(r#"bare AND "b""#).is_err());
        assert!(parse_query(r#""unterminated"#).is_err());
        assert!(parse_query(r#""" AND "b""#).is_err());
        assert!(
            parse_query(r#""a" "b""#).is_err(),
            "juxtaposition is not an operator"
        );
        assert!(parse_query("@!").is_err());
    }

    #[test]
    fn multibyte_terms() {
        let q = parse_query("\"héllo wörld\"").unwrap();
        assert_eq!(q, QueryExpr::term("héllo wörld"));
    }
}

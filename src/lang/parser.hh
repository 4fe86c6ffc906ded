/**
 * @file
 * Recursive-descent parser for the mini-C frontend.
 */

#ifndef ELAG_LANG_PARSER_HH
#define ELAG_LANG_PARSER_HH

#include <memory>
#include <vector>

#include "lang/ast.hh"
#include "lang/token.hh"
#include "lang/type.hh"

namespace elag {
namespace lang {

/**
 * Parse a token stream into an AST.
 *
 * Grammar (informal):
 *   program    := (global-var | function)*
 *   function   := type ident '(' params ')' block
 *   global-var := type ident ('[' intlit ']')? ('=' expr)? ';'
 *   stmt       := decl | if | while | do-while | for | return |
 *                 break | continue | block | expr ';' | ';'
 *   expr       := standard C precedence, including ?:, short-circuit
 *                 && / ||, compound assignment, ++/--, casts, a[i]
 *
 * Nesting is budgeted: every statement inside a statement, every
 * expression inside another (parentheses, operands, indices, call
 * arguments, assignment right-hand sides), every unary operator and
 * every further binary or postfix operator in a chain counts one
 * level for as long as it is open. A program deeper than MaxNesting
 * levels is a syntax error, so the recursive passes after the parser
 * never see a tree deep enough to exhaust the stack.
 *
 * @throws FatalError with source location on syntax errors.
 */
class Parser
{
  public:
    /** Nesting budget; the deepest corpus program uses 21 levels. */
    static constexpr int MaxNesting = 1000;

    Parser(std::vector<Token> tokens, TypeTable &types);

    /** Parse the whole translation unit. */
    std::unique_ptr<Program> parseProgram();

  private:
    /** Holds nesting levels until destroyed; see MaxNesting. */
    class Nest
    {
      public:
        /** Take @p levels levels now. */
        explicit Nest(Parser &parser, int levels = 1) : parser(parser)
        {
            while (levels-- > 0)
                deeper();
        }
        ~Nest() { parser.depth -= levels; }
        Nest(const Nest &) = delete;
        Nest &operator=(const Nest &) = delete;

        /** Take one more level. */
        void deeper();

      private:
        Parser &parser;
        int levels = 0;
    };

    const Token &peek(int ahead = 0) const;
    const Token &advance();
    bool check(TokKind kind) const;
    bool accept(TokKind kind);
    const Token &expect(TokKind kind, const char *context);
    [[noreturn]] void error(const std::string &msg) const;

    bool atTypeName() const;
    const Type *parseTypeName();

    std::unique_ptr<FuncDecl> parseFunction(const Type *ret,
                                            const std::string &name,
                                            SrcLoc loc);
    std::unique_ptr<VarDecl> parseVarDeclTail(const Type *base,
                                              const std::string &name,
                                              SrcLoc loc);

    StmtPtr parseStmt();
    StmtPtr parseBlock();
    StmtPtr parseIf();
    StmtPtr parseWhile();
    StmtPtr parseDoWhile();
    StmtPtr parseFor();

    ExprPtr parseExpr();
    ExprPtr parseAssignment();
    ExprPtr parseConditional();
    ExprPtr parseBinary(int min_prec);
    ExprPtr parseUnary();
    ExprPtr parsePostfix();
    ExprPtr parsePrimary();

    std::vector<Token> toks;
    size_t pos = 0;
    /** Nesting levels currently open. */
    int depth = 0;
    TypeTable &types;
};

/** Convenience: lex and parse source text. */
std::unique_ptr<Program> parseSource(const std::string &source,
                                     TypeTable &types);

} // namespace lang
} // namespace elag

#endif // ELAG_LANG_PARSER_HH
